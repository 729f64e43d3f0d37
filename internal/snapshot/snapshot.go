// Package snapshot implements the CHSS ("CHRIS session snapshot") binary
// framing shared by every durable blob in the repository outside the
// record columns (internal/reccache): the streaming engine's per-session
// checkpoints (internal/serve), the simulator's mid-run state records
// (internal/sim, used by fleet mid-day resume), the learned HR-transition
// prior (internal/belief) and the TCN weight files (internal/models/tcn).
// WriteFile publishes any of them crash-safely.
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
	"os"
)

// Version is the current CHSS frame version. Bump it when the framing
// (not a payload schema) changes; payload schemas version through Kind.
const Version = 1

// Kind namespaces payload schemas within the shared frame, so a fleet
// user-state file can never be restored into a serve engine. A changed
// schema takes a new Kind, and frames of a retired kind open as ErrStale:
// kinds 1 and 3 held the serve engine and session layouts and kind 4 the
// sim-state layout from before the per-window counters became one
// sim.Ledger; kind 2 held the sim-state layout with a separate link-edge
// flag; kind 9 held the sim-state layout from before the belief
// posterior and the active configuration joined the step's sim.Carry.
type Kind uint16

const (
	// KindBeliefTable frames a belief.Table: the learned HR-transition
	// prior and its grid.
	KindBeliefTable Kind = 5
	// KindWeights frames one TCN's parameters: its topology name and
	// parameter count, then every parameter's name and float32 values in
	// topology order.
	KindWeights Kind = 6
	// KindServeEngine frames a serve engine checkpoint: every session's
	// state in ID order, each ending in its step's sim.Carry.
	KindServeEngine Kind = 7
	// KindServeSession frames one serve session's state — the live
	// migration unit (Engine.Detach / Engine.Attach).
	KindServeSession Kind = 8
	// KindSimState frames a sim.State payload: the run's own fields, its
	// sim.Ledger and its step's sim.Carry.
	KindSimState Kind = 10
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
//
// A Writer from NewSizer records nothing and only counts, so an encoder
// can run its field sequence once to size the frame and once more to fill
// a buffer allocated exactly once (NewWriterSize).
type Writer struct {
	buf    []byte
	sizing bool
	n      int // payload bytes counted by a sizer
}

// NewWriter starts a frame of the given kind, bound to configHash (the
// caller's fingerprint of every trajectory-affecting knob).
func NewWriter(kind Kind, configHash uint64) *Writer {
	return NewWriterSize(kind, configHash, 0)
}

// NewWriterSize is NewWriter with room for a payload of the given length,
// so a frame that stays within it is one allocation: the returned frame.
func NewWriterSize(kind Kind, configHash uint64, payload int) *Writer {
	w := &Writer{buf: make([]byte, headerSize, headerSize+payload+crcSize)}
	copy(w.buf, magic)
	binary.LittleEndian.PutUint16(w.buf[4:], Version)
	binary.LittleEndian.PutUint16(w.buf[6:], uint16(kind))
	binary.LittleEndian.PutUint64(w.buf[8:], configHash)
	return w
}

// NewSizer returns a counting Writer: its field methods record nothing,
// Len reports the payload length they would have encoded, and it must not
// be finished.
func NewSizer() *Writer { return &Writer{sizing: true} }

// Len returns the payload length written or counted so far.
func (w *Writer) Len() int {
	if w.sizing {
		return w.n
	}
	return len(w.buf) - headerSize
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) {
	if w.sizing {
		w.n++
		return
	}
	w.buf = append(w.buf, v)
}

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
	if w.sizing {
		w.n += 8
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 appends an int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64 by exact bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String appends a u32 length prefix and the raw bytes.
func (w *Writer) String(s string) {
	if w.sizing {
		w.n += 4 + len(s)
		return
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// F64s appends a u32 count prefix and each element's exact bit pattern.
func (w *Writer) F64s(vs []float64) {
	if w.sizing {
		w.n += 4 + 8*len(vs)
		return
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(vs)))
	for _, v := range vs {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
	}
}

// F32s appends a u32 count prefix and each element's exact bit pattern.
func (w *Writer) F32s(vs []float32) {
	if w.sizing {
		w.n += 4 + 4*len(vs)
		return
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(vs)))
	for _, v := range vs {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, math.Float32bits(v))
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

// F32s reads a u32-count-prefixed float32 slice.
func (r *Reader) F32s() []float32 {
	b := r.take(4)
	if b == nil {
		return nil
	}
	n := int(binary.LittleEndian.Uint32(b))
	raw := r.take(n * 4)
	if raw == nil {
		return nil
	}
	vs := make([]float32, n)
	for i := range vs {
		vs[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
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

// WriteFile publishes data at path with the record cache's partial-file
// discipline: bytes land in path+".partial" (reccache.PartialPath), are
// fsynced, and only then rename onto path. Readers therefore see either
// the previous complete file or the new complete file — never a torn
// write — and a crash at any instant leaves at worst a stale .partial
// alongside an intact published file. Every CHSS blob on disk goes
// through it: serve checkpoints, fleet session snapshots, the cached
// transition prior and the TCN weight files.
func WriteFile(path string, data []byte) error {
	tmp := path + ".partial"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
