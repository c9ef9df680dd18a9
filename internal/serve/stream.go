package serve

// stream.go is the batched half of the estimate data plane:
// POST /v1/estimate/stream accepts newline-delimited JSON — one estimate
// request per line, the same shape as /v1/estimate — and answers with one
// NDJSON line per input line, in order: either a compact estimate
// response or an {"error": "..."} object carrying exactly the message the
// unary endpoint would have returned for that request. A bad line never
// aborts the batch; the HTTP status is 200 once streaming starts.
//
// Each line runs through the same estimator as a unary request
// (estimate.go), and every hdserve_estimate_* counter increments per
// line, so batch and unary traffic read identically on /metrics. Reader,
// writer and scratch buffers are pooled: a steady-state hot-shape line
// allocates nothing.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// streamFlushEvery bounds how many lines are answered between explicit
// flushes, so a slowly-fed long batch still streams results back instead
// of buffering them to the end.
const streamFlushEvery = 128

// streamBufSize sizes the pooled line reader and response writer. Lines
// longer than the reader buffer spill into the request scratch (correct,
// just not allocation-free).
const streamBufSize = 64 << 10

var streamReaderPool = sync.Pool{New: func() any {
	return bufio.NewReaderSize(nil, streamBufSize)
}}

var streamWriterPool = sync.Pool{New: func() any {
	return bufio.NewWriterSize(io.Discard, streamBufSize)
}}

// readLine returns the next newline-terminated line without its
// terminator, reusing the reader's internal buffer when the line fits.
// err is io.EOF at end of body (possibly alongside a final unterminated
// line), or the transport error that interrupted the batch.
func readLine(br *bufio.Reader, sc *estScratch) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == nil {
		return line[:len(line)-1], nil
	}
	if err != bufio.ErrBufferFull {
		return line, err
	}
	// Oversized line: accumulate the spill into the scratch body buffer.
	sc.body = append(sc.body[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = br.ReadSlice('\n')
		sc.body = append(sc.body, line...)
	}
	if err == nil {
		sc.body = sc.body[:len(sc.body)-1]
	}
	return sc.body, err
}

// blankLine reports whether a line holds only whitespace; such lines are
// skipped without producing an output line.
func blankLine(line []byte) bool {
	for _, c := range line {
		switch c {
		case ' ', '\t', '\r':
		default:
			return false
		}
	}
	return true
}

// writeStreamError emits one {"error": "..."} line. The message passes
// through json.Marshal so arbitrary decode errors stay valid JSON.
func writeStreamError(bw *bufio.Writer, msg string) {
	b, err := json.Marshal(errorResponse{Error: msg})
	if err != nil {
		b = []byte(`{"error":"internal error"}`)
	}
	_, _ = bw.Write(b)
	_ = bw.WriteByte('\n')
}

// handleEstimateStream is the NDJSON batch endpoint. One request prices
// an arbitrary number of estimate lines without re-paying per-request
// HTTP, routing, or middleware costs — the wire format a load generator
// or a simulation trace exporter wants. Answers stream back while the
// batch is still arriving, so a client must read the response as it
// sends the body.
func (s *Server) handleEstimateStream(w http.ResponseWriter, r *http.Request) {
	// Without full duplex an HTTP/1.1 server drains or closes the unread
	// body at the first flush, cutting any batch whose answer outgrows
	// the writer. The error only says the writer cannot switch, and
	// HTTP/2 writers are duplex already.
	_ = http.NewResponseController(w).EnableFullDuplex()
	br := streamReaderPool.Get().(*bufio.Reader)
	br.Reset(r.Body)
	defer func() {
		br.Reset(nil) // drop the body reference before pooling
		streamReaderPool.Put(br)
	}()
	bw := streamWriterPool.Get().(*bufio.Writer)
	bw.Reset(w)
	defer func() {
		bw.Reset(io.Discard)
		streamWriterPool.Put(bw)
	}()
	sc := getScratch()
	defer putScratch(sc)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	lines := 0
	for {
		line, err := readLine(br, sc)
		if len(line) > 0 && !blankLine(line) {
			if out, rerr := s.estimate(line, sc, false); rerr != nil {
				writeStreamError(bw, rerr.msg)
			} else {
				_, _ = bw.Write(out)
				_ = bw.WriteByte('\n')
			}
			lines++
			if lines%streamFlushEvery == 0 {
				_ = bw.Flush()
				if f, ok := w.(http.Flusher); ok {
					f.Flush()
				}
			}
		}
		if err != nil {
			if err != io.EOF {
				// Transport failure (or the MaxBytesReader cap) mid-batch:
				// report it in-band and end the stream.
				writeStreamError(bw, fmt.Sprintf("request body: %v", err))
			}
			break
		}
	}
	_ = bw.Flush()
}
