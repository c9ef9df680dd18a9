//go:build unix

package atomicio

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestWriteFileRefusesNonRegular: renaming a temp file over a FIFO or a
// directory would replace it, so WriteFile refuses both with a
// *NotRegularError before it creates anything, and leaves them as they
// were.
func TestWriteFileRefusesNonRegular(t *testing.T) {
	dir := t.TempDir()
	fifo := filepath.Join(dir, "fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, "sub")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	write(t, filepath.Join(sub, "keep.json"), []byte("{}\n"))

	for _, path := range []string{fifo, sub} {
		before, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		err = WriteFile(path, []byte("{}\n"), 0o644)
		var nre *NotRegularError
		if !errors.As(err, &nre) || nre.Path != path || nre.Mode != before.Mode() {
			t.Fatalf("WriteFile(%s) = %v, want a *NotRegularError for it", path, err)
		}
		after, err := os.Stat(path)
		if err != nil || after.Mode() != before.Mode() {
			t.Fatalf("%s changed: mode %v -> %v (%v)", path, before.Mode(), after.Mode(), err)
		}
	}
	for d, want := range map[string]int{dir: 2, sub: 1} {
		if entries, err := os.ReadDir(d); err != nil || len(entries) != want {
			t.Errorf("%s holds %d entries, want %d (%v)", d, len(entries), want, err)
		}
	}
}
