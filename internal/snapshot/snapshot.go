// Package snapshot implements the CHSS ("CHRIS session snapshot") binary
// framing shared by every durable-state codec in the repository: the
// streaming engine's per-session checkpoints (internal/serve) and the
// simulator's mid-run state records (internal/sim, used by fleet
// mid-day resume).
//
// A CHSS blob is one self-validating frame:
//
//	magic "CHSS" | version u16 | kind u16 | confighash u64 |
//	payloadlen u64 | payload ... | crc32c u32
//
// all little-endian. The CRC (Castagnoli) covers everything before the
// trailer, so truncation, torn writes and bit flips are detected before a
// single payload byte is interpreted. Two typed errors classify every
// rejection: ErrCorrupt for damaged bytes (bad magic, failed CRC,
// truncation, malformed payload), ErrStale for intact frames that cannot
// be used (future version, wrong kind, config-hash mismatch). Callers
// degrade deterministically on either — a fresh session instead of a
// panic or silent state poisoning.
//
// Encoding is canonical: for any accepted frame, re-encoding the decoded
// state reproduces the input bytes exactly (the FuzzSnapshot target in
// serve pins this), which is what makes byte-level replay gates possible
// across checkpoint/resume boundaries.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Version is the current CHSS frame version. Bump it when the framing
// (not a payload schema) changes; payload schemas version through Kind.
const Version = 1

// Kind namespaces payload schemas within the shared frame, so a fleet
// user-state file can never be restored into a serve engine.
type Kind uint16

const (
	// KindServeEngine frames a serve.EngineSnapshot payload.
	KindServeEngine Kind = 1
	// KindServeSession frames one serve session's state — the live
	// migration unit (Engine.Detach / Engine.Attach).
	KindServeSession Kind = 3
	// KindSimState frames a sim.State payload. Kind 2 held the earlier
	// layout with a separate link-edge flag; it is retired, so such
	// frames open as ErrStale.
	KindSimState Kind = 4
)

// ErrCorrupt reports damaged bytes: bad magic, failed CRC, truncation, or
// a payload that does not parse. The snapshot carries no usable state.
var ErrCorrupt = errors.New("snapshot: corrupt")

// ErrStale reports an intact frame that cannot be used here: a future
// frame version, the wrong payload kind, or a config hash that does not
// match the restoring configuration.
var ErrStale = errors.New("snapshot: stale")

const (
	magic      = "CHSS"
	headerSize = 4 + 2 + 2 + 8 + 8
	crcSize    = 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Writer serializes one CHSS frame. Field order is the schema: the
// matching Reader must issue the same typed reads in the same order.
type Writer struct {
	buf []byte
}

// NewWriter starts a frame of the given kind, bound to configHash (the
// caller's fingerprint of every trajectory-affecting knob).
func NewWriter(kind Kind, configHash uint64) *Writer {
	w := &Writer{buf: make([]byte, headerSize)}
	copy(w.buf, magic)
	binary.LittleEndian.PutUint16(w.buf[4:], Version)
	binary.LittleEndian.PutUint16(w.buf[6:], uint16(kind))
	binary.LittleEndian.PutUint64(w.buf[8:], configHash)
	return w
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a bool as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 appends an int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64 by exact bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String appends a u32 length prefix and the raw bytes.
func (w *Writer) String(s string) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// F64s appends a u32 count prefix and each element's exact bit pattern.
func (w *Writer) F64s(vs []float64) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(vs)))
	for _, v := range vs {
		w.F64(v)
	}
}

// Finish seals the frame: the payload length lands in the header and the
// CRC trailer is appended. The Writer must not be used afterwards.
func (w *Writer) Finish() []byte {
	binary.LittleEndian.PutUint64(w.buf[16:], uint64(len(w.buf)-headerSize))
	return binary.LittleEndian.AppendUint32(w.buf, crc32.Checksum(w.buf, crcTable))
}

// Reader validates a CHSS frame and yields its payload fields in order.
// Every getter is total: reads past the payload set a sticky ErrCorrupt
// and return zero values, so decoding loops need no per-field checks —
// one Err() call at the end suffices (Done also verifies full
// consumption).
type Reader struct {
	payload []byte
	off     int
	err     error
}

// Open validates framing, version, integrity, kind and config hash — in
// that order, so a version bump reports ErrStale even though its CRC (of
// the newer layout) cannot be checked, while any byte damage under the
// current version reports ErrCorrupt.
func Open(data []byte, kind Kind, configHash uint64) (*Reader, error) {
	if len(data) < headerSize+crcSize || string(data[:4]) != magic {
		return nil, fmt.Errorf("%w: bad frame header", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != Version {
		return nil, fmt.Errorf("%w: frame version %d, want %d", ErrStale, v, Version)
	}
	body, trailer := data[:len(data)-crcSize], data[len(data)-crcSize:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	if n := binary.LittleEndian.Uint64(data[16:]); n != uint64(len(body)-headerSize) {
		return nil, fmt.Errorf("%w: payload length %d, frame holds %d", ErrCorrupt, n, len(body)-headerSize)
	}
	if k := Kind(binary.LittleEndian.Uint16(data[6:])); k != kind {
		return nil, fmt.Errorf("%w: payload kind %d, want %d", ErrStale, k, kind)
	}
	if h := binary.LittleEndian.Uint64(data[8:]); h != configHash {
		return nil, fmt.Errorf("%w: config hash %x, want %x", ErrStale, h, configHash)
	}
	return &Reader{payload: body[headerSize:]}, nil
}

// corrupt records the first payload-level failure.
func (r *Reader) corrupt(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]interface{}{ErrCorrupt}, args...)...)
	}
}

// take returns the next n payload bytes, or nil after setting the sticky
// error.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.payload)-r.off {
		r.corrupt("payload truncated at offset %d", r.off)
		return nil
	}
	b := r.payload[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte and rejects anything but 0 or 1 (canonical
// encoding: re-encoding an accepted frame must be byte-identical).
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.corrupt("non-canonical bool at offset %d", r.off-1)
		return false
	}
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// String reads a u32-length-prefixed string.
func (r *Reader) String() string {
	b := r.take(4)
	if b == nil {
		return ""
	}
	n := binary.LittleEndian.Uint32(b)
	s := r.take(int(n))
	if s == nil {
		return ""
	}
	return string(s)
}

// F64s reads a u32-count-prefixed float64 slice.
func (r *Reader) F64s() []float64 {
	b := r.take(4)
	if b == nil {
		return nil
	}
	n := int(binary.LittleEndian.Uint32(b))
	raw := r.take(n * 8)
	if raw == nil {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return vs
}

// Err returns the sticky payload error, if any.
func (r *Reader) Err() error { return r.err }

// Done verifies the payload decoded cleanly and was consumed exactly:
// trailing payload bytes are rejected, keeping the encoding canonical.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.payload) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(r.payload)-r.off)
	}
	return nil
}
