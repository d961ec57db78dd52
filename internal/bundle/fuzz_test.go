package bundle

import (
	"bytes"
	"testing"

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

// FuzzBundleLoad feeds NFVB files to Load, as is and with the payload
// reframed under a valid checksum: every input either loads into a bundle
// that validates, or is refused with an error. None panics.
func FuzzBundleLoad(f *testing.F) {
	var valid bytes.Buffer
	if err := trainedBundle(f).Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reframe(data, Magic, Version)} {
			if in == nil {
				continue
			}
			b, err := Load(bytes.NewReader(in))
			if err != nil {
				continue
			}
			if verr := b.Validate(); verr != nil {
				t.Fatalf("Load accepted a bundle that does not validate: %v", verr)
			}
		}
	})
}
