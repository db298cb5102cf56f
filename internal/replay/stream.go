package replay

import (
	"fmt"
	"os"

	"qserve/internal/protocol"
)

// DecodePrefix parses as much of a possibly torn log as is intact: the
// header must decode (a log whose header is damaged carries no usable
// information), but the record stream may stop mid-record — a kill -9
// can land between the frame flush and the next — and everything up to
// the first truncated or corrupt record is returned. The boundary is
// trustworthy because every record carries its own fold16: a torn tail
// cannot masquerade as a valid record. The second result is the number
// of trailing bytes that were dropped.
func DecodePrefix(data []byte) (*Log, int, error) {
	lg, err := Decode(data)
	if err == nil {
		return lg, 0, nil
	}
	// Walk records manually, keeping the valid prefix.
	if len(data) < len(logMagic)+2 {
		return nil, 0, ErrTruncated
	}
	if string(data[:4]) != string(logMagic[:]) {
		return nil, 0, ErrBadMagic
	}
	version := uint16(data[4]) | uint16(data[5])<<8
	if version != FormatVersion {
		return nil, 0, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	pos := 6
	if len(data)-pos < 4 {
		return nil, 0, fmt.Errorf("%w: header length", ErrTruncated)
	}
	hlen := int(uint32(data[pos]) | uint32(data[pos+1])<<8 | uint32(data[pos+2])<<16 | uint32(data[pos+3])<<24)
	if hlen < 9 || hlen > maxMapJSON || len(data)-pos < 4+hlen+2 {
		return nil, 0, fmt.Errorf("%w: header body", ErrTruncated)
	}
	headerEnd := pos + 4 + hlen + 2

	// Find the longest record-aligned prefix whose records all verify.
	cut := headerEnd
	p := headerEnd
	for p < len(data) {
		if len(data)-p < 3 {
			break
		}
		plen := int(uint16(data[p+1]) | uint16(data[p+2])<<8)
		if len(data)-p < 3+plen+2 {
			break
		}
		framed := data[p : p+3+plen]
		sum := uint16(data[p+3+plen]) | uint16(data[p+3+plen+1])<<8
		if protocol.Fold16(framed) != sum {
			break
		}
		_, end, err := decodeRecord(data[p], framed[3:])
		if err != nil {
			break
		}
		p += 3 + plen + 2
		cut = p
		if end {
			break // anything after an end marker is not part of the log
		}
	}
	lg, err = Decode(data[:cut])
	if err != nil {
		return nil, 0, err
	}
	return lg, len(data) - cut, nil
}

// ReadPrefixFile reads path and decodes its intact prefix.
func ReadPrefixFile(path string) (*Log, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return DecodePrefix(data)
}
