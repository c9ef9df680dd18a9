// Package atomicio makes on-disk state crash-safe. Every durable artifact
// of the pipeline — characterized models, width regressions, run
// manifests, characterization checkpoints — goes through the same write
// discipline:
//
//  1. write to a temp file in the destination directory,
//  2. append a SHA-256 checksum trailer over the payload,
//  3. fsync the file, rename it over the destination, fsync the directory.
//
// A crash at any point leaves either the old file or the new file, never
// a torn mixture; a torn file that arrives anyway (filesystem bugs, bad
// disks, scp-ed partial copies) is caught by the checksum on load,
// quarantined to <path>.corrupt, and reported as a typed *CorruptError so
// callers can degrade instead of parsing garbage as a model.
//
// The trailer is one trailing line:
//
//	#hdpower-sha256:<64 hex digits>:<payload byte length>
//
// ReadFile strips and verifies it. Files written before the trailer
// existed load with ErrNoChecksum alongside their payload, letting
// callers apply their own legacy policy (usually: parse + validate, and
// quarantine on failure).
package atomicio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"hdpower/internal/faultpoint"
)

// trailerPrefix starts the checksum trailer line. The leading '#' keeps
// the line visually distinct from the JSON payload above it.
const trailerPrefix = "#hdpower-sha256:"

// ErrNoChecksum reports a file without a checksum trailer (written before
// this package existed). ReadFile returns it together with the payload.
var ErrNoChecksum = errors.New("atomicio: no checksum trailer")

// CorruptError reports a file whose content cannot be trusted: checksum
// mismatch, mangled trailer, or caller-detected invalid payload. The file
// has already been quarantined when Quarantined is non-empty.
type CorruptError struct {
	// Path is the file that failed verification.
	Path string
	// Reason says what failed.
	Reason string
	// Quarantined is where the bad file was moved ("" if the rename
	// failed or was not attempted).
	Quarantined string
}

func (e *CorruptError) Error() string {
	if e.Quarantined != "" {
		return fmt.Sprintf("atomicio: %s is corrupt (%s); quarantined to %s",
			e.Path, e.Reason, e.Quarantined)
	}
	return fmt.Sprintf("atomicio: %s is corrupt (%s)", e.Path, e.Reason)
}

// IsCorrupt reports whether err (or anything it wraps) is a CorruptError.
func IsCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

// NotRegularError reports a WriteFile target that exists and is not a
// regular file: a directory, a FIFO, a device or a socket. Renaming a
// temp file over it would replace it, so WriteFile refuses it before
// creating anything.
type NotRegularError struct {
	Path string
	Mode os.FileMode
}

func (e *NotRegularError) Error() string {
	return fmt.Sprintf("atomicio: %s is not a regular file (mode %v)", e.Path, e.Mode)
}

// WriteFile atomically and durably replaces path with data plus a
// checksum trailer. On any error the destination is untouched; a
// destination that is not a regular file is refused with a
// *NotRegularError.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	if fi, err := os.Stat(path); err == nil && !fi.Mode().IsRegular() {
		return &NotRegularError{Path: path, Mode: fi.Mode()}
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()

	if ferr := faultpoint.Hit("atomicio.write"); ferr != nil {
		// Simulate a torn write: half the payload lands in the temp file
		// and the write "fails". The destination must stay intact — that
		// is the property chaos runs exercise.
		_, _ = tmp.Write(data[:len(data)/2])
		return fmt.Errorf("atomicio: write %s: %w", path, ferr)
	}

	if _, err := tmp.Write(appendTrailer(data)); err != nil {
		return fmt.Errorf("atomicio: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("atomicio: sync %s: %w", path, err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return fmt.Errorf("atomicio: chmod %s: %w", path, err)
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		tmp = nil
		os.Remove(name)
		return fmt.Errorf("atomicio: close %s: %w", path, err)
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("atomicio: %w", err)
	}
	return syncDir(dir)
}

// WriteOutput writes a command's output file, the same bytes as
// WriteFile: atomically through WriteFile when path is a regular file or
// does not exist, and in place when WriteFile refuses it as not regular,
// so an output path may name a FIFO or a device without replacing it.
// Durable state does not take this path: only WriteFile leaves the old
// or the new file after a crash.
func WriteOutput(path string, data []byte) error {
	err := WriteFile(path, data, 0o644)
	var nre *NotRegularError
	if !errors.As(err, &nre) {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	_, err = f.Write(appendTrailer(data))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("atomicio: write %s: %w", path, err)
	}
	return nil
}

// WriteJSON marshals v as indented JSON and writes it atomically.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("atomicio: encode %s: %w", path, err)
	}
	return WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile reads path and verifies its checksum trailer, returning the
// payload without the trailer.
//
//   - Verified:            (payload, nil)
//   - No trailer (legacy): (payload, ErrNoChecksum)
//   - Corrupt:             (nil, *CorruptError), file quarantined
//   - I/O error:           (nil, err) with os sentinel semantics intact
func ReadFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := verifyTrailer(raw)
	var ce *CorruptError
	if errors.As(err, &ce) {
		return nil, quarantineCorrupt(path, ce.Reason)
	}
	return payload, err
}

// ReadJSON reads, verifies, and unmarshals path into v. A file that fails
// to parse — checksummed or legacy — is quarantined and reported corrupt:
// by the time JSON syntax breaks, the bytes cannot be trusted either way.
func ReadJSON(path string, v any) error {
	data, err := ReadFile(path)
	if err != nil && !errors.Is(err, ErrNoChecksum) {
		return err
	}
	if jerr := json.Unmarshal(data, v); jerr != nil {
		return quarantineCorrupt(path, fmt.Sprintf("invalid JSON: %v", jerr))
	}
	return err // nil or ErrNoChecksum
}

// Quarantine moves a bad file aside to <path>.corrupt (replacing any
// earlier quarantine) so it stops poisoning loads but stays available for
// post-mortems. It returns the quarantine path ("" if the move failed).
func Quarantine(path string) string {
	q := path + ".corrupt"
	if err := os.Rename(path, q); err != nil {
		return ""
	}
	return q
}

// MarkCorrupt quarantines path and returns the typed corruption error;
// callers use it when their own validation (schema, invariants) fails on
// a file that passed — or predates — the checksum.
func MarkCorrupt(path, reason string) error {
	return quarantineCorrupt(path, reason)
}

func quarantineCorrupt(path, reason string) error {
	return &CorruptError{Path: path, Reason: reason, Quarantined: Quarantine(path)}
}

// appendTrailer returns data plus the checksum trailer line. The checksum
// covers exactly data; a newline is inserted first when data does not end
// with one, and the recorded payload length lets ReadFile return the
// original bytes unchanged either way.
func appendTrailer(data []byte) []byte {
	sum := sha256.Sum256(data)
	out := make([]byte, 0, len(data)+len(trailerPrefix)+80)
	out = append(out, data...)
	if len(data) == 0 || data[len(data)-1] != '\n' {
		out = append(out, '\n')
	}
	out = append(out, trailerPrefix...)
	out = append(out, hex.EncodeToString(sum[:])...)
	out = append(out, ':')
	out = strconv.AppendInt(out, int64(len(data)), 10)
	out = append(out, '\n')
	return out
}

// sealedPath names the input of a *CorruptError that verifyTrailer
// returns: bytes in memory, not yet a file.
const sealedPath = "(sealed payload)"

// verifyTrailer is the bytes→payload decision behind ReadFile and
// Unseal, free of I/O. It accepts exactly what appendTrailer writes, with
// or without the trailer line's final newline, and nothing else:
//
//   - (payload, nil) when the last line is a trailer whose SHA-256 and
//     canonical decimal length match the payload, and the payload is
//     followed only by the separator newline appendTrailer adds;
//   - (raw, ErrNoChecksum) when the last line has no trailer prefix;
//   - (nil, *CorruptError) for every other input: a present but mangled
//     trailer fails loudly instead of passing as a legacy file.
func verifyTrailer(raw []byte) ([]byte, error) {
	trimmed := bytes.TrimSuffix(raw, []byte("\n"))
	nl := bytes.LastIndexByte(trimmed, '\n')
	line := trimmed[nl+1:] // nl == -1 → whole content
	if !bytes.HasPrefix(line, []byte(trailerPrefix)) {
		return raw, ErrNoChecksum
	}
	corrupt := func(reason string) error { return &CorruptError{Path: sealedPath, Reason: reason} }
	sum, field, ok := bytes.Cut(line[len(trailerPrefix):], []byte(":"))
	n, err := strconv.Atoi(string(field))
	if !ok || err != nil || n < 0 || strconv.Itoa(n) != string(field) {
		return nil, corrupt("malformed trailer")
	}
	// appendTrailer writes the payload, then a newline unless the payload
	// is non-empty and already ends with one, then the trailer line.
	body := raw[:nl+1]
	var payload []byte
	switch {
	case n == len(body)-1 && (n == 0 || body[n-1] != '\n'):
		payload = body[:n]
	case n == len(body) && n > 0:
		payload = body
	default:
		return nil, corrupt("trailer length out of range")
	}
	got := sha256.Sum256(payload)
	if hex.EncodeToString(got[:]) != string(sum) {
		return nil, corrupt("checksum mismatch")
	}
	return payload, nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Platforms that refuse to open directories degrade to a no-op.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return fmt.Errorf("atomicio: sync dir %s: %w", dir, err)
	}
	return nil
}
