package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// postNDJSON posts raw NDJSON to the stream endpoint and returns the
// response plus its non-empty output lines.
func postNDJSON(t *testing.T, url, body string) (*http.Response, []string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/estimate/stream", "application/x-ndjson",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			lines = append(lines, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp, lines
}

// TestEstimateStream drives the batch endpoint through every line
// disposition — fast path, legacy fallback, degraded model, per-line
// error, blank line — and checks each output line against the unary
// endpoint's answer for the same request.
func TestEstimateStream(t *testing.T) {
	_, ts := newTestServer(t, Config{BuildFunc: instantBuilds(4)})
	buildReady(t, ts.URL, map[string]any{"module": "ripple-adder", "width": 2, "seed": 7})

	reqLines := []string{
		`{"model":{"module":"ripple-adder","width":2,"seed":7},"hd":[0,1,2]}`, // fast
		`{"model":` + slowModelJSON("ripple-adder", 2, 7) + `,"hd":[0,1,2]}`,  // legacy, same answer
		`{"model":{"module":"ripple-adder","width":2,"seed":9},"hd":[1]}`,     // degraded (seed sibling)
		`{"model":{"module":"ripple-adder","width":2,"seed":7},"hd":[99]}`,    // per-line error
		``, // blank: skipped
		`{"model":{"module":"ripple-adder","width":2,"seed":7},"words":[0,3,15]}`,            // fast, words
		`{"model":{"module":"ripple-adder","width":2,"seed":7},"hd":[1],"stable_zeros":[2]}`, // fast, enhanced
		`not json`, // decode error
	}
	resp, lines := postNDJSON(t, ts.URL, strings.Join(reqLines, "\n")+"\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	if len(lines) != 7 {
		t.Fatalf("got %d output lines, want 7 (blank input skipped): %q", len(lines), lines)
	}

	for i, reqLine := range []string{reqLines[0], reqLines[1], reqLines[2], reqLines[5], reqLines[6]} {
		idx := []int{0, 1, 2, 4, 5}[i]
		uResp, uData := postRaw(t, ts.URL+"/v1/estimate", reqLine)
		if uResp.StatusCode != http.StatusOK {
			t.Fatalf("unary for line %d: %d %s", idx, uResp.StatusCode, uData)
		}
		var want, got estimateResponse
		if err := json.Unmarshal(uData, &want); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(lines[idx]), &got); err != nil {
			t.Fatalf("line %d not JSON: %v: %s", idx, err, lines[idx])
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("line %d: stream %+v != unary %+v", idx, got, want)
		}
	}

	// Line 3: out-of-range hd carries the exact unary error message.
	uResp, uData := postRaw(t, ts.URL+"/v1/estimate", reqLines[3])
	if uResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unary error probe: %d", uResp.StatusCode)
	}
	var wantErr, gotErr errorResponse
	if err := json.Unmarshal(uData, &wantErr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[3]), &gotErr); err != nil {
		t.Fatalf("error line not JSON: %v: %s", err, lines[3])
	}
	if gotErr.Error == "" || gotErr.Error != wantErr.Error {
		t.Errorf("error line %q != unary error %q", gotErr.Error, wantErr.Error)
	}

	// Line 6: the decode error line mentions the failure without killing
	// the batch (line 6 exists and earlier asserts already passed).
	if err := json.Unmarshal([]byte(lines[6]), &gotErr); err != nil || gotErr.Error == "" {
		t.Errorf("decode-error line malformed: %s", lines[6])
	}
	// Degraded line is marked.
	var degraded estimateResponse
	if err := json.Unmarshal([]byte(lines[2]), &degraded); err != nil {
		t.Fatal(err)
	}
	if !degraded.Degraded || degraded.Fallback != fallbackSeed {
		t.Errorf("degraded line not marked: %s", lines[2])
	}
}

// TestEstimateStreamMetricsPerItem pins the metrics fix: stream lines
// increment the same hdserve_estimate_* instruments as unary requests,
// once per item — including the degraded and served-path counters.
func TestEstimateStreamMetricsPerItem(t *testing.T) {
	s, ts := newTestServer(t, Config{BuildFunc: instantBuilds(4)})
	buildReady(t, ts.URL, map[string]any{"module": "ripple-adder", "width": 2, "seed": 7})

	var b strings.Builder
	for i := 0; i < 5; i++ {
		b.WriteString(`{"model":{"module":"ripple-adder","width":2,"seed":7},"hd":[0,1]}` + "\n")
	}
	for i := 0; i < 3; i++ {
		b.WriteString(`{"model":{"module":"ripple-adder","width":2,"seed":8},"hd":[0]}` + "\n")
	}
	resp, lines := postNDJSON(t, ts.URL, b.String())
	if resp.StatusCode != http.StatusOK || len(lines) != 8 {
		t.Fatalf("stream: status %d, %d lines", resp.StatusCode, len(lines))
	}
	if got := s.met.servedLUT.Value(); got != 5 {
		t.Errorf("servedLUT = %d, want 5", got)
	}
	if got := s.met.servedLegacy.Value(); got != 3 {
		t.Errorf("servedLegacy = %d, want 3 (degraded lines take the slow path)", got)
	}
	if got := s.met.estimateDegraded(fallbackSeed).Value(); got != 3 {
		t.Errorf("estimateDegraded[seed] = %d, want 3 (one per degraded line)", got)
	}
	if got := s.met.estCycles.Value(); got != 5*2+3*1 {
		t.Errorf("estCycles = %d, want 13", got)
	}
}

// TestStreamLineAllocs pins the zero-allocation claim for the steady
// stream path: reading a hot-shape line from the buffered reader,
// pricing it and rendering the compact response allocates nothing.
func TestStreamLineAllocs(t *testing.T) {
	s, ts := newTestServer(t, Config{BuildFunc: instantBuilds(4)})
	buildReady(t, ts.URL, map[string]any{"module": "ripple-adder", "width": 2, "seed": 7})

	line := `{"model":{"module":"ripple-adder","width":2,"seed":7},"hd":[0,1,2,3,4]}` + "\n"
	payload := []byte(strings.Repeat(line, 4))
	br := bufio.NewReaderSize(nil, streamBufSize)
	sc := getScratch()
	defer putScratch(sc)
	reader := bytes.NewReader(payload)

	allocs := testing.AllocsPerRun(200, func() {
		reader.Reset(payload)
		br.Reset(reader)
		for {
			l, err := readLine(br, sc)
			if len(l) > 0 {
				if _, ok := s.estimateFastBytes(l, sc, false); !ok {
					t.Fatal("fast path refused hot-shape stream line")
				}
			}
			if err != nil {
				break
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady stream line path: %v allocs/op, want 0", allocs)
	}
}

// TestStreamOversizedLine checks the spill path: a line longer than the
// reader buffer still parses correctly (via the scratch spill), it is
// just not allocation-free.
func TestStreamOversizedLine(t *testing.T) {
	_, ts := newTestServer(t, Config{BuildFunc: instantBuilds(4), MaxBodyBytes: 4 << 20})
	buildReady(t, ts.URL, map[string]any{"module": "ripple-adder", "width": 2, "seed": 7})

	// One line with ~100k hd entries: bigger than the 64k reader buffer.
	n := 100_000
	var b strings.Builder
	b.WriteString(`{"model":{"module":"ripple-adder","width":2,"seed":7},"hd":[0`)
	for i := 1; i < n; i++ {
		b.WriteString(",1")
	}
	b.WriteString("]}\n")
	resp, lines := postNDJSON(t, ts.URL, b.String())
	if resp.StatusCode != http.StatusOK || len(lines) != 1 {
		t.Fatalf("status %d, %d lines", resp.StatusCode, len(lines))
	}
	var got estimateResponse
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatalf("line not JSON: %v", err)
	}
	if got.Cycles != n {
		t.Fatalf("cycles = %d, want %d", got.Cycles, n)
	}
}

// TestStreamAnswerOutgrowsWriteBuffer is the regression test for large
// batches: once the answer outgrows the 64 KiB response writer while the
// request body is still unread, every line must still come back. Without
// full-duplex mode net/http drains or closes the unread body at the first
// flush, and the batch ends early with "unexpected EOF" lines.
func TestStreamAnswerOutgrowsWriteBuffer(t *testing.T) {
	_, ts := newTestServer(t, Config{BuildFunc: instantBuilds(4)})
	buildReady(t, ts.URL, map[string]any{"module": "ripple-adder", "width": 2, "seed": 7})

	const nLines, cycles = 64, 2048
	var line strings.Builder
	line.WriteString(`{"model":{"module":"ripple-adder","width":2,"seed":7},"hd":[0`)
	for i := 1; i < cycles; i++ {
		fmt.Fprintf(&line, ",%d", i%5)
	}
	line.WriteString("]}\n")
	body := strings.Repeat(line.String(), nLines)
	resp, lines := postNDJSON(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	size := 0
	for i, l := range lines {
		size += len(l) + 1
		var got estimateResponse
		if err := json.Unmarshal([]byte(l), &got); err != nil || got.Cycles != cycles {
			t.Fatalf("line %d: %.80s", i, l)
		}
	}
	if len(lines) != nLines {
		t.Fatalf("got %d lines, want %d", len(lines), nLines)
	}
	if size <= streamBufSize {
		t.Fatalf("answer of %d bytes does not outgrow the %d-byte writer", size, streamBufSize)
	}
}
