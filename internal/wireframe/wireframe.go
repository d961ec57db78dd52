// Package wireframe implements the common on-disk framing used by the
// runtime's persistent artifacts (model bundles, monitor checkpoints): a
// 4-byte magic, a little-endian format version, the payload length, the
// payload itself, and a CRC32 (IEEE) trailer over the payload. The frame
// lets loaders reject truncated or bit-flipped files with a descriptive
// error before any byte of the payload is trusted.
package wireframe

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// headerLen is magic (4) + version (4) + payload length (8).
const headerLen = 4 + 4 + 8

// Encode writes one framed payload to w.
func Encode(w io.Writer, magic string, version uint32, payload []byte) error {
	if len(magic) != 4 {
		return fmt.Errorf("wireframe: magic must be 4 bytes, got %q", magic)
	}
	header := make([]byte, headerLen)
	copy(header, magic)
	binary.LittleEndian.PutUint32(header[4:], version)
	binary.LittleEndian.PutUint64(header[8:], uint64(len(payload)))
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("wireframe: writing header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("wireframe: writing payload: %w", err)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(crc[:]); err != nil {
		return fmt.Errorf("wireframe: writing checksum: %w", err)
	}
	return nil
}

// Decode validates the frame around data and returns the payload. Input
// that does not begin with magic, an unknown version, a truncated payload,
// or a checksum mismatch each yield a descriptive error.
func Decode(data []byte, magic string, version uint32) ([]byte, error) {
	if len(magic) != 4 {
		return nil, fmt.Errorf("wireframe: magic must be 4 bytes, got %q", magic)
	}
	if len(data) < 4 || string(data[:4]) != magic {
		return nil, fmt.Errorf("wireframe: missing %q magic: not a framed file, or its first bytes are damaged", magic)
	}
	if len(data) < headerLen+4 {
		return nil, fmt.Errorf("wireframe: truncated: %d bytes is too short for the frame header", len(data))
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != version {
		return nil, fmt.Errorf("wireframe: unsupported format version %d (this build reads version %d)", v, version)
	}
	plen := binary.LittleEndian.Uint64(data[8:])
	if uint64(len(data)-headerLen-4) != plen {
		return nil, fmt.Errorf("wireframe: truncated or padded: header promises %d payload bytes, file carries %d",
			plen, len(data)-headerLen-4)
	}
	payload := data[headerLen : headerLen+int(plen)]
	want := binary.LittleEndian.Uint32(data[headerLen+int(plen):])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("wireframe: checksum mismatch (want %08x, got %08x): file is corrupt", want, got)
	}
	return payload, nil
}
