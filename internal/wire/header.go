package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// headerFormat leads every encoded Header. No JSON text can begin with
// it, so a frame from a peer that still sends JSON headers fails decode
// with ErrBadHeader instead of being misread. Adding, removing or
// reordering a field changes the layout and must bump this byte.
const headerFormat = 0xB1

// ErrBadHeader indicates a frame header that is not a well-formed header
// of this format: a JSON-era header, a truncated or overlong field, an
// unknown field bit, or trailing bytes.
var ErrBadHeader = errors.New("wire: malformed header")

// Presence bits of the header mask. A set bit means the field follows in
// the header body, in bit order; the bool fields are carried by their
// bit alone. The fields every invoke and result frame carries come first
// so the mask of a plain invocation fits in one varint byte.
const (
	hStreamID = 1 << iota
	hKernel
	hParams
	hValues
	hInvocationID
	hDurationNanos
	hColdStart
	hTenant
	hDeadlineNanos
	hLeaseID
	hLeaseLen
	hLeaseResultLen
	hCachedColdStart
	hError
	hCode
	hRetryable
	hLeaseBytes
	hShmKey
	hResultShmKey
	hWantShmResult
	hNames
	hStats
	hKind
	hMuxVersion
	hMaxStreams

	hKnown = hMaxStreams<<1 - 1
)

// errNonFinite reports a float the protocol refuses to carry. Params
// feed kernel cost models and values are kernel results; NaN and ±Inf
// have no meaning in either, and peers predating the binary header could
// not represent them, so both encode and decode reject them.
func errNonFinite(what, key string, v float64) error {
	return fmt.Errorf("wire: encode header: %s %q is %v, not a finite number", what, key, v)
}

// appendHeader encodes h onto buf: the format byte, the presence mask,
// then each present field in mask-bit order. It allocates nothing beyond
// growing buf.
func appendHeader(buf []byte, h *Header) ([]byte, error) {
	var mask uint64
	set := func(bit uint64, present bool) {
		if present {
			mask |= bit
		}
	}
	set(hStreamID, h.StreamID != 0)
	set(hKernel, h.Kernel != "")
	set(hParams, h.Params != nil)
	set(hValues, h.Values != nil)
	set(hInvocationID, h.InvocationID != "")
	set(hDurationNanos, h.DurationNanos != 0)
	set(hColdStart, h.ColdStart)
	set(hTenant, h.Tenant != "")
	set(hDeadlineNanos, h.DeadlineNanos != 0)
	set(hLeaseID, h.LeaseID != 0)
	set(hLeaseLen, h.LeaseLen != 0)
	set(hLeaseResultLen, h.LeaseResultLen != 0)
	set(hCachedColdStart, h.CachedColdStart)
	set(hError, h.Error != "")
	set(hCode, h.Code != "")
	set(hRetryable, h.Retryable)
	set(hLeaseBytes, h.LeaseBytes != 0)
	set(hShmKey, h.ShmKey != "")
	set(hResultShmKey, h.ResultShmKey != "")
	set(hWantShmResult, h.WantShmResult)
	set(hNames, h.Names != nil)
	set(hStats, h.Stats != nil)
	set(hKind, h.Kind != "")
	set(hMuxVersion, h.MuxVersion != 0)
	set(hMaxStreams, h.MaxStreams != 0)

	buf = append(buf, headerFormat)
	buf = binary.AppendUvarint(buf, mask)
	if mask&hStreamID != 0 {
		buf = binary.AppendUvarint(buf, h.StreamID)
	}
	if mask&hKernel != 0 {
		buf = appendString(buf, h.Kernel)
	}
	var err error
	if mask&hParams != 0 {
		if buf, err = appendFloats(buf, "param", h.Params); err != nil {
			return buf, err
		}
	}
	if mask&hValues != 0 {
		if buf, err = appendFloats(buf, "value", h.Values); err != nil {
			return buf, err
		}
	}
	if mask&hInvocationID != 0 {
		buf = appendString(buf, h.InvocationID)
	}
	if mask&hDurationNanos != 0 {
		buf = binary.AppendVarint(buf, h.DurationNanos)
	}
	if mask&hTenant != 0 {
		buf = appendString(buf, h.Tenant)
	}
	if mask&hDeadlineNanos != 0 {
		buf = binary.AppendVarint(buf, h.DeadlineNanos)
	}
	if mask&hLeaseID != 0 {
		buf = binary.AppendUvarint(buf, h.LeaseID)
	}
	if mask&hLeaseLen != 0 {
		buf = binary.AppendVarint(buf, h.LeaseLen)
	}
	if mask&hLeaseResultLen != 0 {
		buf = binary.AppendVarint(buf, h.LeaseResultLen)
	}
	if mask&hError != 0 {
		buf = appendString(buf, h.Error)
	}
	if mask&hCode != 0 {
		buf = appendString(buf, h.Code)
	}
	if mask&hLeaseBytes != 0 {
		buf = binary.AppendVarint(buf, h.LeaseBytes)
	}
	if mask&hShmKey != 0 {
		buf = appendString(buf, h.ShmKey)
	}
	if mask&hResultShmKey != 0 {
		buf = appendString(buf, h.ResultShmKey)
	}
	if mask&hNames != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(h.Names)))
		for _, name := range h.Names {
			buf = appendString(buf, name)
		}
	}
	if mask&hStats != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(h.Stats)))
		buf = append(buf, h.Stats...)
	}
	if mask&hKind != 0 {
		buf = appendString(buf, h.Kind)
	}
	if mask&hMuxVersion != 0 {
		buf = binary.AppendUvarint(buf, uint64(h.MuxVersion))
	}
	if mask&hMaxStreams != 0 {
		buf = binary.AppendVarint(buf, int64(h.MaxStreams))
	}
	return buf, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendFloats encodes a float map as a count and (key, IEEE-754 bits)
// pairs, in map iteration order.
func appendFloats(buf []byte, what string, m map[string]float64) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(m)))
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return buf, errNonFinite(what, k, v)
		}
		buf = appendString(buf, k)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf, nil
}

// headerDecoder walks an encoded header. The first failure sticks in
// err and turns every later read into a no-op, so decodeHeader checks it
// once at the end. Every string field is a substring of one copy of the
// header bytes, made on the first string, so a decode allocates that
// copy once rather than once per string.
type headerDecoder struct {
	b   []byte
	s   string
	pos int
	err error
}

func (d *headerDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at byte %d", ErrBadHeader, fmt.Sprintf(format, args...), d.pos)
	}
}

// left reports how many header bytes remain undecoded.
func (d *headerDecoder) left() uint64 { return uint64(len(d.b) - d.pos) }

func (d *headerDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.pos += n
	return v
}

func (d *headerDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.pos:])
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.pos += n
	return v
}

// length reads a count or byte length and checks it against the bytes
// left, given that each counted item takes at least itemMin bytes,
// before the caller allocates anything sized by it.
func (d *headerDecoder) length(itemMin uint64) int {
	n := d.uvarint()
	if n > d.left()/itemMin {
		d.fail("length %d exceeds the %d bytes left", n, d.left())
		return 0
	}
	return int(n)
}

func (d *headerDecoder) string() string {
	n := d.length(1)
	if d.err != nil || n == 0 {
		return ""
	}
	if d.s == "" {
		d.s = string(d.b)
	}
	s := d.s[d.pos : d.pos+n]
	d.pos += n
	return s
}

// floats decodes a float map. Each pair takes at least 9 bytes (an empty
// key's length byte and the 8 value bytes), which bounds the count.
func (d *headerDecoder) floats(what string) map[string]float64 {
	n := d.length(9)
	if d.err != nil {
		return nil
	}
	m := make(map[string]float64, n)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.string()
		if d.err != nil {
			break
		}
		if d.left() < 8 {
			d.fail("truncated %s %q", what, k)
			break
		}
		v := math.Float64frombits(binary.BigEndian.Uint64(d.b[d.pos:]))
		d.pos += 8
		if math.IsNaN(v) || math.IsInf(v, 0) {
			d.fail("%s %q is %v, not a finite number", what, k, v)
		}
		m[k] = v
		if len(m) != i+1 {
			d.fail("duplicate %s %q", what, k)
		}
	}
	return m
}

// decodeHeader decodes an encoded header into out. It rejects an unknown
// format byte, unknown mask bits, truncated or overlong varints, lengths
// and counts larger than the bytes left, non-finite or duplicate map
// entries, and trailing bytes, all as ErrBadHeader.
func decodeHeader(b []byte, out *Header) error {
	if len(b) == 0 {
		return fmt.Errorf("%w: empty header", ErrBadHeader)
	}
	if b[0] != headerFormat {
		if b[0] == '{' {
			return fmt.Errorf("%w: JSON header from a peer predating the binary header format", ErrBadHeader)
		}
		return fmt.Errorf("%w: unknown header format %#02x", ErrBadHeader, b[0])
	}
	d := headerDecoder{b: b, pos: 1}
	mask := d.uvarint()
	if mask&^hKnown != 0 {
		d.fail("unknown field bits %#x", mask&^hKnown)
	}
	h := Header{
		ColdStart:       mask&hColdStart != 0,
		CachedColdStart: mask&hCachedColdStart != 0,
		Retryable:       mask&hRetryable != 0,
		WantShmResult:   mask&hWantShmResult != 0,
	}
	if mask&hStreamID != 0 {
		h.StreamID = d.uvarint()
	}
	if mask&hKernel != 0 {
		h.Kernel = d.string()
	}
	if mask&hParams != 0 {
		h.Params = d.floats("param")
	}
	if mask&hValues != 0 {
		h.Values = d.floats("value")
	}
	if mask&hInvocationID != 0 {
		h.InvocationID = d.string()
	}
	if mask&hDurationNanos != 0 {
		h.DurationNanos = d.varint()
	}
	if mask&hTenant != 0 {
		h.Tenant = d.string()
	}
	if mask&hDeadlineNanos != 0 {
		h.DeadlineNanos = d.varint()
	}
	if mask&hLeaseID != 0 {
		h.LeaseID = d.uvarint()
	}
	if mask&hLeaseLen != 0 {
		h.LeaseLen = d.varint()
	}
	if mask&hLeaseResultLen != 0 {
		h.LeaseResultLen = d.varint()
	}
	if mask&hError != 0 {
		h.Error = d.string()
	}
	if mask&hCode != 0 {
		h.Code = d.string()
	}
	if mask&hLeaseBytes != 0 {
		h.LeaseBytes = d.varint()
	}
	if mask&hShmKey != 0 {
		h.ShmKey = d.string()
	}
	if mask&hResultShmKey != 0 {
		h.ResultShmKey = d.string()
	}
	if mask&hNames != 0 {
		h.Names = make([]string, d.length(1))
		for i := range h.Names {
			h.Names[i] = d.string()
		}
	}
	if mask&hStats != 0 {
		n := d.length(1)
		if d.err == nil {
			h.Stats = append([]byte{}, d.b[d.pos:d.pos+n]...)
			d.pos += n
		}
	}
	if mask&hKind != 0 {
		h.Kind = d.string()
	}
	if mask&hMuxVersion != 0 {
		v := d.uvarint()
		if v > math.MaxUint8 {
			d.fail("mux version %d out of range", v)
		}
		h.MuxVersion = uint8(v)
	}
	if mask&hMaxStreams != 0 {
		v := d.varint()
		if int64(int(v)) != v {
			d.fail("max streams %d out of range", v)
		}
		h.MaxStreams = int(v)
	}
	if d.err != nil {
		return d.err
	}
	if d.pos != len(b) {
		d.fail("%d trailing bytes", len(b)-d.pos)
		return d.err
	}
	*out = h
	return nil
}
