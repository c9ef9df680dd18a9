//go:build unix

package main

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"hdpower/internal/atomicio"
	"hdpower/internal/core"
)

// TestCharacterizeToFIFO: -o naming a FIFO delivers the checksummed model
// to the FIFO's reader and leaves the FIFO in place, instead of renaming
// a regular file over it.
func TestCharacterizeToFIFO(t *testing.T) {
	dir := t.TempDir()
	fifo := filepath.Join(dir, "model.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	go func() {
		raw, err := os.ReadFile(fifo) // opens once the writer does
		if err != nil {
			t.Error(err)
		}
		got <- raw
	}()
	if err := cmdCharacterize([]string{"-module", "ripple-adder", "-width", "4",
		"-patterns", "512", "-o", fifo}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Lstat(fifo); err != nil || fi.Mode().Type() != os.ModeNamedPipe {
		t.Fatalf("-o replaced the FIFO: %v, %v", fi.Mode(), err)
	}
	var raw []byte
	select {
	case raw = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("the FIFO's reader received nothing")
	}
	payload, err := atomicio.Unseal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := core.LoadModel(payload); err != nil || m.InputBits != 8 {
		t.Fatalf("model read from the FIFO: %v, %+v", err, m)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("%d entries beside the FIFO, want none", len(entries)-1)
	}
}
