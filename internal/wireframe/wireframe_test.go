package wireframe

import (
	"bytes"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("the payload bytes")
	if err := Encode(&buf, "TEST", 3, payload); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf.Bytes(), "TEST", 3)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload: %q", got)
	}
}

func TestDecodeUnframed(t *testing.T) {
	for _, data := range [][]byte{[]byte("not framed data"), []byte("TES"), nil} {
		payload, err := Decode(data, "TEST", 1)
		if err == nil || payload != nil || !strings.Contains(err.Error(), `missing "TEST" magic`) {
			t.Fatalf("unframed input %q must be rejected naming the magic: %q %v", data, payload, err)
		}
	}
}

func TestDecodeCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, "TEST", 1, bytes.Repeat([]byte("x"), 100)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	for cut := 5; cut < len(full); cut += 17 {
		if _, err := Decode(full[:cut], "TEST", 1); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	flipped := append([]byte(nil), full...)
	flipped[16+50] ^= 1
	if _, err := Decode(flipped, "TEST", 1); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("bit flip: %v", err)
	}
	if _, err := Decode(full, "TEST", 2); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch: %v", err)
	}
}

func TestBadMagicLength(t *testing.T) {
	if err := Encode(&bytes.Buffer{}, "TOOLONG", 1, nil); err == nil {
		t.Fatal("magic must be 4 bytes")
	}
	if _, err := Decode(nil, "TOOLONG", 1); err == nil {
		t.Fatal("magic must be 4 bytes")
	}
}
