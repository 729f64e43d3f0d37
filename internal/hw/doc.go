// Package hw assembles the calibrated component models of the paper's
// testbed — STM32WB55 smartwatch MCU, Raspberry Pi 3 phone proxy, BLE 5
// link, PPG/IMU sensors, battery and converter — behind the cost queries
// the CHRIS decision engine and the profiling pipeline consume
// (WatchLocalEnergy, WatchOffloadEnergy, PhoneEnergy and their
// active-only variants).
//
// The subpackages hold the per-component calibrations (hw/mcu, hw/phone,
// hw/ble, hw/sensors, hw/power); this package wires them into one System
// whose numbers reproduce Tables I-III. Energy queries are pure
// arithmetic over a model's Ops()/Params() and the calibrated constants.
//
// Hot paths: none — every query is O(1) and runs once per configuration,
// not per window: the profiler calls them per configuration, and the
// per-window step (sim.Step) resolves each selectable model's Cost when
// it is built, which is why System's cycle tables are read-only from
// then on. No BENCH kernels; correctness is
// pinned by the calibration tests (hw_test.go) and the Table I/III
// headline metrics in BENCH_*.json.
package hw
