package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorruptRow is returned when a row payload cannot be decoded.
var ErrCorruptRow = errors.New("record: corrupt row encoding")

// Row encoding: a varint column count, then per column a kind byte followed
// by a kind-specific payload (varint-framed for strings/bytes). Unlike the
// key encoding it is not order-preserving, but it is compact and exact.

// AppendRow appends the encoding of r to dst.
func AppendRow(dst []byte, r Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = append(dst, byte(v.Kind()))
		switch v.Kind() {
		case KindNull:
		case KindBool:
			dst = append(dst, byte(v.i))
		case KindInt64:
			dst = binary.AppendVarint(dst, v.i)
		case KindFloat64:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.f))
		case KindString:
			dst = binary.AppendUvarint(dst, uint64(len(v.s)))
			dst = append(dst, v.s...)
		case KindBytes:
			dst = binary.AppendUvarint(dst, uint64(len(v.b)))
			dst = append(dst, v.b...)
		default:
			panic(fmt.Sprintf("record: cannot row-encode kind %d", v.kind))
		}
	}
	return dst
}

// EncodeRow returns the encoding of r in a fresh slice.
func EncodeRow(r Row) []byte {
	// Size the buffer once: varint count plus per-value worst cases, so
	// AppendRow never reallocates mid-encode.
	size := binary.MaxVarintLen64
	for _, v := range r {
		switch v.Kind() {
		case KindString:
			size += 1 + binary.MaxVarintLen64 + len(v.s)
		case KindBytes:
			size += 1 + binary.MaxVarintLen64 + len(v.b)
		default:
			size += 1 + binary.MaxVarintLen64
		}
	}
	return AppendRow(make([]byte, 0, size), r)
}

// DecodeRow decodes an encoded row. The returned row does not alias buf.
func DecodeRow(buf []byte) (Row, error) { return DecodeRowInto(nil, buf) }

// DecodeRowInto is DecodeRow reusing dst's backing array when it is large
// enough: a scan that looks at one row at a time decodes without allocating
// (string and bytes payloads are still copied out of buf).
func DecodeRowInto(dst Row, buf []byte) (Row, error) {
	n, used := binary.Uvarint(buf)
	if used <= 0 || n > uint64(len(buf)) {
		return nil, ErrCorruptRow
	}
	buf = buf[used:]
	r := dst[:0]
	if uint64(cap(r)) < n {
		r = make(Row, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		if len(buf) == 0 {
			return nil, ErrCorruptRow
		}
		kind := Kind(buf[0])
		buf = buf[1:]
		switch kind {
		case KindNull:
			r = append(r, Null())
		case KindBool:
			if len(buf) < 1 {
				return nil, ErrCorruptRow
			}
			r = append(r, Bool(buf[0] != 0))
			buf = buf[1:]
		case KindInt64:
			v, used := binary.Varint(buf)
			if used <= 0 {
				return nil, ErrCorruptRow
			}
			r = append(r, Int(v))
			buf = buf[used:]
		case KindFloat64:
			if len(buf) < 8 {
				return nil, ErrCorruptRow
			}
			r = append(r, Float(math.Float64frombits(binary.LittleEndian.Uint64(buf))))
			buf = buf[8:]
		case KindString:
			s, rest, err := takeFramed(buf)
			if err != nil {
				return nil, err
			}
			r = append(r, Str(string(s)))
			buf = rest
		case KindBytes:
			s, rest, err := takeFramed(buf)
			if err != nil {
				return nil, err
			}
			b := make([]byte, len(s))
			copy(b, s)
			r = append(r, Bytes(b))
			buf = rest
		default:
			return nil, fmt.Errorf("%w: unknown kind %d", ErrCorruptRow, kind)
		}
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptRow, len(buf))
	}
	return r, nil
}

func takeFramed(buf []byte) ([]byte, []byte, error) {
	n, used := binary.Uvarint(buf)
	if used <= 0 || n > uint64(len(buf)-used) {
		return nil, nil, ErrCorruptRow
	}
	return buf[used : used+int(n)], buf[used+int(n):], nil
}
