package ingest

import (
	"bytes"
	"testing"

	"nfvpredict/internal/detect"
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

// FuzzRestoreMonitor feeds NFVC files to RestoreMonitor, as is and with
// the payload reframed under a valid checksum: every input either restores
// a monitor that serves (scores a message for each host and checkpoints
// again), or is refused with an error. None panics.
func FuzzRestoreMonitor(f *testing.F) {
	tree, det := trainMonitorDetector(f)
	resolve := func(string) *detect.LSTMDetector { return det }
	mcfg := DefaultMonitorConfig()
	mcfg.Threshold = 4
	mon := NewMonitorWithResolver(mcfg, tree, resolve, nil)
	msgs := monitorTraffic([]string{"vpe01", "vpe02"}, 20)
	for _, m := range msgs {
		mon.HandleMessage(m)
	}
	var valid bytes.Buffer
	if err := mon.Checkpoint(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reframe(data, CheckpointMagic, CheckpointVersion)} {
			if in == nil {
				continue
			}
			restored, err := RestoreMonitor(bytes.NewReader(in), mcfg, resolve, nil)
			if err != nil {
				continue
			}
			for _, host := range []string{"vpe01", "vpe02"} {
				m := msgs[len(msgs)-1]
				m.Host = host
				restored.HandleMessage(m)
			}
			if err := restored.Checkpoint(new(bytes.Buffer)); err != nil {
				t.Fatalf("restored monitor cannot checkpoint: %v", err)
			}
		}
	})
}
