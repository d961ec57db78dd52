package lifecycle

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nfvpredict/internal/wireframe"
)

// reframe wraps data's payload region (what lies between a frame's header
// and its CRC trailer) in a valid frame, so mutations of the payload reach
// the decoder instead of stopping at the checksum. It returns nil for
// input too short to hold a frame.
func reframe(data []byte, magic string, version uint32) []byte {
	const header, trailer = 16, 4
	if len(data) < header+trailer {
		return nil
	}
	var out bytes.Buffer
	wireframe.Encode(&out, magic, version, data[header:len(data)-trailer])
	return out.Bytes()
}

// FuzzLoadSpool feeds NFVS files to Manager.LoadSpool, as is and with the
// payload reframed under a valid checksum: every input either loads into
// a manager that reports its status and saves its spool again, or is
// refused with an error. None panics.
func FuzzLoadSpool(f *testing.F) {
	sb, tree := testBundle(f)
	lcfg := testLifecycleConfig()
	lm, mon := buildStack(f, lcfg, sb, tree)
	feedNormal(mon, "vpe01", 100, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	seed := filepath.Join(f.TempDir(), "seed.nfvs")
	if err := lm.SaveSpool(seed); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for _, in := range [][]byte{data, reframe(data, SpoolMagic, SpoolVersion)} {
			if in == nil {
				continue
			}
			path := filepath.Join(dir, "spool.nfvs")
			if err := os.WriteFile(path, in, 0o644); err != nil {
				t.Fatal(err)
			}
			loaded, _ := buildStack(t, lcfg, sb, tree)
			if err := loaded.LoadSpool(path); err != nil {
				continue
			}
			for ci, n := range loaded.Status().SpoolWindows {
				if n < 0 || n > lcfg.SpoolPerCluster {
					t.Fatalf("cluster %d holds %d spooled windows, capacity %d", ci, n, lcfg.SpoolPerCluster)
				}
			}
			if err := loaded.SaveSpool(filepath.Join(dir, "again.nfvs")); err != nil {
				t.Fatalf("loaded spool cannot be saved again: %v", err)
			}
		}
	})
}
