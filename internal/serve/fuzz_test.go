package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nfvpredict/internal/ingest"
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

// FuzzRestartFile feeds restart files to New, as is and with the payload
// reframed under a valid checksum. The seed is a checkpoint carrying a
// promoted generation and a spool. Every input either restores a stack
// or is quarantined for a cold one; either way the stack scores, holds no
// more spooled windows than its capacity and checkpoints again. None
// panics.
func FuzzRestartFile(f *testing.F) {
	o := adaptOptions(f)
	live, err := New(o)
	if err != nil {
		f.Fatal(err)
	}
	at := traffic(live, 300, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	if res := live.Lifecycle.TriggerCycle(true); !res.Promoted {
		f.Fatalf("forced cycle did not promote: %+v", res)
	}
	at = traffic(live, 100, at)
	if err := live.Checkpoint("seed"); err != nil {
		f.Fatal(err)
	}
	live.Close()
	seed, err := os.ReadFile(o.Checkpoint)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reframe(data, ingest.CheckpointMagic, ingest.CheckpointVersion)} {
			if in == nil {
				continue
			}
			ro := o
			ro.Checkpoint = filepath.Join(t.TempDir(), "monitor.nfvc")
			if err := os.WriteFile(ro.Checkpoint, in, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := New(ro)
			if err != nil {
				t.Fatalf("New refused to serve: %v", err)
			}
			traffic(s, 20, at)
			for ci, n := range s.Lifecycle.Status().SpoolWindows {
				if n < 0 || n > o.Lifecycle.SpoolPerCluster {
					t.Fatalf("cluster %d holds %d spooled windows, capacity %d", ci, n, o.Lifecycle.SpoolPerCluster)
				}
			}
			if err := s.Checkpoint("again"); err != nil {
				t.Fatalf("restored stack cannot checkpoint: %v", err)
			}
			s.Close()
		}
	})
}
