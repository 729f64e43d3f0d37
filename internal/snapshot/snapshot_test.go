package snapshot

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
)

// frame builds a small reference frame exercising every field type.
func frame(t *testing.T) []byte {
	t.Helper()
	w := NewWriter(KindServeEngine, 0xfeed)
	writeFields(w)
	return w.Finish()
}

// writeFields writes the reference frame's payload: every field type.
func writeFields(w *Writer) {
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.U64(1<<63 + 12345)
	w.I64(-42)
	w.F64(math.Pi)
	w.String("hello, CHSS")
	w.F64s([]float64{0.25, 0.5, 0.25})
	w.F32s([]float32{1.5, -2})
}

// TestSizerPresizesExactly: a sizer counts exactly the payload the same
// field sequence writes, so a frame pre-sized from it is byte-identical
// to a grown one and is sealed without reallocating.
func TestSizerPresizesExactly(t *testing.T) {
	sz := NewSizer()
	writeFields(sz)
	w := NewWriterSize(KindServeEngine, 0xfeed, sz.Len())
	writeFields(w)
	if w.Len() != sz.Len() {
		t.Fatalf("sizer counted %d payload bytes, writer wrote %d", sz.Len(), w.Len())
	}
	data := w.Finish()
	if !bytes.Equal(data, frame(t)) {
		t.Fatal("pre-sized frame differs from the grown frame")
	}
	if cap(data) != len(data) {
		t.Fatalf("frame length %d, capacity %d: the pre-size was off", len(data), cap(data))
	}
	if n := testing.AllocsPerRun(20, func() {
		w := NewWriterSize(KindServeEngine, 0xfeed, sz.Len())
		writeFields(w)
		w.Finish()
	}); n != 1 {
		t.Fatalf("pre-sized frame makes %v allocations, want 1", n)
	}
}

func TestRoundTrip(t *testing.T) {
	data := frame(t)
	r, err := Open(data, KindServeEngine, 0xfeed)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.U64(); got != 1<<63+12345 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.String(); got != "hello, CHSS" {
		t.Errorf("String = %q", got)
	}
	vs := r.F64s()
	if len(vs) != 3 || vs[0] != 0.25 || vs[1] != 0.5 || vs[2] != 0.25 {
		t.Errorf("F64s = %v", vs)
	}
	fs := r.F32s()
	if len(fs) != 2 || fs[0] != 1.5 || fs[1] != -2 {
		t.Errorf("F32s = %v", fs)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

// TestF32sExactBits: F32s carries bit patterns, not values, so negative
// zero, subnormals and a NaN payload survive the round trip; a count that
// runs past the payload is rejected before anything is sized from it.
func TestF32sExactBits(t *testing.T) {
	in := []float32{
		float32(math.Copysign(0, -1)),
		math.Float32frombits(1),          // smallest subnormal
		math.Float32frombits(0x007fffff), // largest subnormal
		math.Float32frombits(0x7fc01234), // quiet NaN with a payload
		math.Float32frombits(0xff800001), // signalling NaN, sign set
		math.MaxFloat32,
	}
	w := NewWriter(KindWeights, 9)
	w.F32s(in)
	r, err := Open(w.Finish(), KindWeights, 9)
	if err != nil {
		t.Fatal(err)
	}
	out := r.F32s()
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("%d elements back, want %d", len(out), len(in))
	}
	for i := range in {
		if math.Float32bits(out[i]) != math.Float32bits(in[i]) {
			t.Errorf("element %d: bits %#08x, want %#08x", i, math.Float32bits(out[i]), math.Float32bits(in[i]))
		}
	}

	// A count of 3 over two elements' worth of payload.
	w = NewWriter(KindWeights, 9)
	w.U8(3)
	w.U8(0)
	w.U8(0)
	w.U8(0)
	w.F64(0)
	r, err = Open(w.Finish(), KindWeights, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.F32s(); got != nil {
		t.Errorf("overlong count decoded %v", got)
	}
	if err := r.Done(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Done = %v, want ErrCorrupt", err)
	}
}

// TestWriteFilePublishesWhole: WriteFile replaces the file's content and
// leaves no partial file behind.
func TestWriteFilePublishesWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blob.chss")
	for _, data := range [][]byte{frame(t), []byte("second")} {
		if err := WriteFile(path, data); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read back %q, want %q", got, data)
		}
		if _, err := os.Stat(path + ".partial"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("partial file left behind: %v", err)
		}
	}
}

func TestOpenRejections(t *testing.T) {
	data := frame(t)
	cases := []struct {
		name string
		mut  func([]byte) []byte
		kind Kind
		hash uint64
		want error
	}{
		{"wrong kind", nil, KindSimState, 0xfeed, ErrStale},
		{"wrong hash", nil, KindServeEngine, 0xbeef, ErrStale},
		{"version bump", func(b []byte) []byte { b[4]++; return b }, KindServeEngine, 0xfeed, ErrStale},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, KindServeEngine, 0xfeed, ErrCorrupt},
		{"flipped payload bit", func(b []byte) []byte { b[headerSize] ^= 1; return b }, KindServeEngine, 0xfeed, ErrCorrupt},
		{"truncated", func(b []byte) []byte { return b[:len(b)-5] }, KindServeEngine, 0xfeed, ErrCorrupt},
		{"short", func([]byte) []byte { return []byte("CHS") }, KindServeEngine, 0xfeed, ErrCorrupt},
	}
	for _, tc := range cases {
		b := append([]byte(nil), data...)
		if tc.mut != nil {
			b = tc.mut(b)
		}
		if _, err := Open(b, tc.kind, tc.hash); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestCorruptionAlwaysRejected drives every faults corruption kind over
// many seeds: a damaged frame must never open cleanly AND decode to the
// original field values (bit flips may land in the payload of a frame
// whose CRC then fails, so Open catching it is the common case; the
// invariant is no silent acceptance of changed bytes).
func TestCorruptionAlwaysRejected(t *testing.T) {
	data := frame(t)
	for _, kind := range faults.CorruptKinds() {
		rng := faults.NewRand(99)
		for i := 0; i < 200; i++ {
			bad := faults.Corrupt(data, kind, rng)
			if bytes.Equal(bad, data) {
				t.Fatalf("%v: corruption %d left the frame unchanged", kind, i)
			}
			if _, err := Open(bad, KindServeEngine, 0xfeed); err == nil {
				t.Fatalf("%v: corruption %d opened cleanly", kind, i)
			}
		}
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	w := NewWriter(KindSimState, 1)
	w.U64(5)
	w.U64(6)
	data := w.Finish()
	r, err := Open(data, KindSimState, 1)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	_ = r.U64()
	if err := r.Done(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Done with trailing bytes = %v, want ErrCorrupt", err)
	}
}

func TestStickyTruncationError(t *testing.T) {
	w := NewWriter(KindSimState, 1)
	w.U8(1)
	data := w.Finish()
	r, err := Open(data, KindSimState, 1)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	_ = r.U8()
	if got := r.U64(); got != 0 {
		t.Errorf("overrun U64 = %d, want 0", got)
	}
	if s := r.String(); s != "" {
		t.Errorf("overrun String = %q", s)
	}
	if err := r.Done(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Done = %v, want ErrCorrupt", err)
	}
}

// TestNonCanonicalBoolRejected pins the canonical-encoding contract the
// re-encode-identity fuzz property relies on.
func TestNonCanonicalBoolRejected(t *testing.T) {
	w := NewWriter(KindSimState, 1)
	w.U8(2) // a bool slot holding 2
	data := w.Finish()
	r, err := Open(data, KindSimState, 1)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	_ = r.Bool()
	if err := r.Done(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Done = %v, want ErrCorrupt", err)
	}
}
