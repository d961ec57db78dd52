package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nfvpredict/internal/faultinject"
)

func TestWriteCreates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.bin")
	err := Write(path, func(w io.Writer) error {
		_, err := w.Write([]byte("hello"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back: %q, %v", got, err)
	}
}

func TestWriteReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.bin")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, func(w io.Writer) error {
		_, err := io.Copy(w, strings.NewReader("new contents"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "new contents" {
		t.Fatalf("replace: %q", got)
	}
}

// TestTornWriteLeavesOldFile is the crash-mid-save scenario: the writer
// dies partway through and the previous file must survive unchanged, with
// no temp-file residue.
func TestTornWriteLeavesOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := os.WriteFile(path, []byte("the good copy"), 0o644); err != nil {
		t.Fatal(err)
	}
	faults := faultinject.NewRegistry()
	if err := faults.Arm("test.write", faultinject.Arming{Mode: faultinject.ModeTorn, Bytes: 7}); err != nil {
		t.Fatal(err)
	}
	fp := faults.Point("test.write", "")
	err := Write(path, func(w io.Writer) error {
		_, err := fp.Writer(w).Write([]byte("a much longer replacement payload"))
		return err
	})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("torn write = %v, want the injected fault surfaced", err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil || string(got) != "the good copy" {
		t.Fatalf("old file damaged: %q, %v", got, rerr)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("temp residue left behind: %v", entries)
	}
}

func TestWriteFnErrorPropagates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "never.bin")
	err := Write(path, func(io.Writer) error { return io.ErrUnexpectedEOF })
	if err == nil {
		t.Fatal("fn error must propagate")
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatal("failed write must not create the target")
	}
}
