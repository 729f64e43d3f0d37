// Package cli is the one command-line front end of chrissim, chrisserve
// and chrisfleet. It declares each CLI's flags, the shared ones once:
// -belief/-gate (the belief policy; a positive -gate implies -belief),
// -json/-v (the output path and progress logging) and, for the two CLIs
// that build the paper suite, -quick, -mae/-energy (the constraint) and
// -faults/-seed (the fault scenario). Parsing checks every numeric flag
// (finite, with its sign) and every cross-flag rule before a CLI builds
// anything expensive, so a bad input fails in milliseconds with an error
// that names the flag.
package cli
