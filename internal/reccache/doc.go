// Package reccache stores profiling records (core.WindowRecord) in a
// fixed-stride binary column layout. Its two properties drive the design:
//
//   - Staleness is decided from the header alone. The record count, model
//     set and geometry live in a few hundred bytes at the front of the
//     file, so "is this cache usable?" costs one small read instead of a
//     full decode — the bench harness rejects stale caches before any
//     column is touched (kernel CacheFirstRecord/columnar measures this
//     in BENCH_*.json).
//
//   - Offsets are a pure function of (model names, capacity, record
//     index). Column regions are preallocated for the whole run, so
//     worker segments land at fixed offsets in any order, a killed run
//     resumes from the checkpointed count, and the finished file is
//     byte-identical no matter how the writes were scheduled or
//     interrupted.
//
// The layout is also mmap-friendly: both float64 regions are 8-byte
// aligned at file offsets, so a little-endian host can view them in place
// (the Reader does exactly that after a single bulk read; a memory map
// could substitute for the read without touching the format).
//
// # File layout (version 1, all integers little-endian)
//
// Fixed 64-byte header:
//
//	off  0  4 bytes  magic "CHRC" (core.RecordCacheMagic)
//	off  4  u32      format version (core.RecordCacheVersion = 1)
//	off  8  u64      count — records fully present as a contiguous prefix;
//	                 the only field rewritten after creation (by
//	                 Writer.Flush checkpoints)
//	off 16  u64      capacity — records the column regions are sized for
//	off 24  u32      M, number of model (prediction) columns
//	off 28  u32      number of column descriptors (always 4)
//	off 32  u64      nameOff — file offset of the model-name table (= 160)
//	off 40  u64      nameLen — byte length of the model-name table
//	off 48  u64      dataOff — file offset of the first column region,
//	                 8-byte aligned
//	off 56  u64      reserved, zero
//
// Column table at offset 64: four 24-byte descriptors
//
//	u32 column id    (core.RecordCol*: 1 TrueHR, 2 Activity,
//	                  3 Difficulty, 4 Preds)
//	u32 element type (core.RecordDType*: 1 f64, 2 u8)
//	u64 region offset
//	u64 stride — bytes per record (8, 1, 1 and 8·M respectively)
//
// Model-name table at nameOff: M × { u32 byte length, name bytes },
// in dense prediction order (core.RecordHeader order).
//
// Column regions, each sized stride·capacity, starting 8-aligned at
// dataOff and laid out in descriptor order:
//
//	TrueHR      capacity × f64
//	Activity    capacity × u8   (dalia.Activity ordinal)
//	Difficulty  capacity × u8   (RF difficulty ID, 1..9)
//	padding to 8-byte alignment, zero
//	Preds       capacity × M × f64, record-major: record i's predictions
//	            occupy [i·8M, (i+1)·8M) within the region, matching
//	            WindowRecord.Preds
//
// Total file size = Preds offset + capacity·8·M; the Writer truncates the
// partial file to this size at creation, so unwritten records read as
// zero bytes and a file shorter than its own layout is detected as
// truncated at Open.
//
// # Crash safety and resume
//
// A Writer works at PartialPath(path) (path + ".partial") and renames
// onto path only in Finalize, after a checkpoint and fsync — mirroring
// tcn.Save, a file under the final name is always complete. Flush
// persists the contiguous completed prefix into the count field, syncing
// the column data first so the checkpoint holds across OS crashes and
// power loss, not just process kills; a run killed between checkpoints
// loses at most the records written since the last Flush. Resume reopens
// the partial file, validates that the stored geometry matches the
// requested run, and continues from count.
package reccache
