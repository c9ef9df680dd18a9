package atomicio

import (
	"bytes"
	"errors"
	"testing"
)

// trailerSeeds returns the seed corpus of FuzzVerifyTrailer: sealed
// files (payloads with and without a final newline, empty, binary), each
// with its payload, sum and length bytes flipped, cut at every offset of
// its trailer line, with a second trailer, with CRLF endings, and legacy
// files without a trailer.
func trailerSeeds() [][]byte {
	var seeds [][]byte
	add := func(b []byte) { seeds = append(seeds, bytes.Clone(b)) }
	for _, payload := range [][]byte{
		nil,
		[]byte("x"),
		[]byte("\n"),
		[]byte("{\"p\": 0.25}\n"),
		[]byte(`{"basic":[{"count":3,"sum":1.5}]}`),
		[]byte("two\nlines\n\n"),
		{0x00, 0xff, '\n', 0x80},
	} {
		sealed := Seal(payload)
		add(sealed)
		add(sealed[:len(sealed)-1]) // trailer without its final newline
		trailer := bytes.LastIndex(sealed, []byte(trailerPrefix))
		colon := bytes.LastIndexByte(sealed, ':')
		for _, at := range []int{0, trailer - 1, trailer + len(trailerPrefix), colon - 1, colon + 1} {
			if at >= 0 && at < len(sealed) {
				flipped := bytes.Clone(sealed)
				flipped[at] ^= 0x01
				add(flipped)
			}
		}
		for cut := trailer; cut < len(sealed); cut++ {
			add(sealed[:cut])
		}
		add(Seal(sealed))                                              // a sealed file sealed again
		add(append(bytes.Clone(sealed), sealed[trailer:]...))          // the trailer twice
		add(bytes.ReplaceAll(sealed, []byte("\n"), []byte("\r\n")))    // CRLF endings
		add(append(bytes.Clone(sealed[:trailer]), "legacy tail\n"...)) // trailer replaced
	}
	add([]byte(`{"ok":true}`))
	add([]byte("legacy\nfile\n"))
	add([]byte(trailerPrefix))
	add([]byte(trailerPrefix + ":0\n"))
	add([]byte(trailerPrefix + ":-1"))
	return seeds
}

// FuzzVerifyTrailer fuzzes the bytes→payload decision behind ReadFile and
// Unseal. It never panics, and on every input:
//
//   - (payload, nil) only for exactly what Seal writes for that payload,
//     with or without the final newline, so the trailer's SHA-256 and
//     length match the payload and no unverified byte is accepted;
//   - ErrNoChecksum, with the input as payload, only when the last line
//     has no trailer prefix;
//   - a *CorruptError, with no payload, for every other input.
//
// The converse holds too: sealing the input, with or without the final
// newline, verifies back to the input.
func FuzzVerifyTrailer(f *testing.F) {
	for _, seed := range trailerSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		payload, err := verifyTrailer(raw)
		lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
		trailed := bytes.HasPrefix(lines[len(lines)-1], []byte(trailerPrefix))
		var ce *CorruptError
		switch {
		case err == nil:
			sealed := Seal(payload)
			if !bytes.Equal(raw, sealed) && !bytes.Equal(raw, sealed[:len(sealed)-1]) {
				t.Fatalf("accepted %q as payload %q, which seals to %q", raw, payload, sealed)
			}
		case errors.Is(err, ErrNoChecksum):
			if trailed {
				t.Fatalf("last line of %q has a trailer prefix, got ErrNoChecksum", raw)
			}
			if !bytes.Equal(payload, raw) {
				t.Fatalf("legacy payload %q, want the input %q", payload, raw)
			}
		case errors.As(err, &ce):
			if !trailed {
				t.Fatalf("last line of %q has no trailer prefix, got %v", raw, err)
			}
			if payload != nil {
				t.Fatalf("corrupt input %q returned payload %q", raw, payload)
			}
		default:
			t.Fatalf("%q: untyped error %v", raw, err)
		}

		sealed := Seal(raw)
		for _, s := range [][]byte{sealed, sealed[:len(sealed)-1]} {
			if got, err := verifyTrailer(s); err != nil || !bytes.Equal(got, raw) {
				t.Fatalf("Seal(%q) verified to (%q, %v)", raw, got, err)
			}
		}
	})
}

// TestVerifyTrailerRefusesUnsealedBytes pins inputs a looser check
// accepted as verified: bytes between the payload and the trailer line,
// which the checksum never covered, and length fields appendTrailer never
// writes. Each is a *CorruptError now, as are the other mangled trailers.
func TestVerifyTrailerRefusesUnsealedBytes(t *testing.T) {
	sealed := Seal([]byte("abc"))
	trailer := bytes.LastIndex(sealed, []byte(trailerPrefix))
	for name, raw := range map[string][]byte{
		"inserted line":  append([]byte("abc\ninserted\n"), sealed[trailer:]...),
		"extra newline":  append([]byte("abc\n\n"), sealed[trailer:]...),
		"signed length":  bytes.Replace(sealed, []byte(":3\n"), []byte(":+3\n"), 1),
		"padded length":  bytes.Replace(sealed, []byte(":3\n"), []byte(":03\n"), 1),
		"trailer only":   Seal(nil)[1:],
		"uppercase hex":  append(bytes.Clone(sealed[:trailer+len(trailerPrefix)]), bytes.ToUpper(sealed[trailer+len(trailerPrefix):])...),
		"no length":      bytes.Replace(sealed, []byte(":3\n"), []byte("\n"), 1),
		"second colon":   bytes.Replace(sealed, []byte(":3\n"), []byte(":3:3\n"), 1),
		"CRLF endings":   bytes.ReplaceAll(sealed, []byte("\n"), []byte("\r\n")),
		"truncated sum":  append(bytes.Clone(sealed[:trailer+len(trailerPrefix)+10]), ":3\n"...),
		"length too big": bytes.Replace(sealed, []byte(":3\n"), []byte(":5\n"), 1),
		"negative alone": bytes.Replace(Seal(nil)[1:], []byte(":0\n"), []byte(":-1\n"), 1),
		"negative":       bytes.Replace(sealed, []byte(":3\n"), []byte(":-1\n"), 1),
	} {
		if payload, err := verifyTrailer(raw); !IsCorrupt(err) || payload != nil {
			t.Errorf("%s: verifyTrailer(%q) = (%q, %v), want a *CorruptError", name, raw, payload, err)
		}
	}
}
