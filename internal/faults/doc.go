// Package faults is the deterministic fault-injection layer of the
// simulator: seeded, replayable event streams describing how the
// wearable-to-mobile offload path misbehaves — bursty BLE packet loss
// (Gilbert–Elliott channel parameters per time segment), forced link
// flaps, phone response-latency spikes, phone unavailability, and
// battery brown-outs — composed into named Scenario presets (commute,
// gym, worst-case).
//
// Determinism is the package contract. Every random draw comes from an
// explicitly seeded splitmix64 stream (Rand); there is no global
// rand.Source anywhere in the fault path, so one (Scenario, seed) pair
// replays to an identical fault stream on every run, worker count, and
// platform. Scenarios themselves are pure data: time-indexed segments
// and intervals, optionally repeated with PeriodSeconds, queried with
// O(log n)/O(n·tiny) lookups and no hidden state.
//
// Faults live in the simulation layer only: internal/sim consumes an
// Injector, internal/hw/ble consumes the Rand and ChannelParams when
// asked to transmit lossily, and nothing in the offline profiling or
// artifact pipeline (eval, bench tables) ever touches this package —
// the Table I/III and figure artifacts cannot be perturbed by it.
//
// Hot paths: the per-packet Rand draws inside ble.Channel and the
// per-window Injector lookups in sim's tick loop. Every lookup first maps
// the time onto the scenario period, which is exact math.Mod made cheap:
// one division and one fused multiply-add in the common case, with Mod
// itself as the fallback (FuzzWrapMatchesMod pins the two bitwise). Both
// are covered by the SimRun1h/faults kernel in BENCH_*.json next to its
// clean reference.
package faults
