package dalia

import "fmt"

// Activity identifies one of the nine DaLiA protocol activities.
type Activity int

// The nine activities of the PPGDalia protocol (paper §III-A).
const (
	Sitting Activity = iota
	Resting
	Working
	Driving
	Lunch
	Cycling
	Walking
	Stairs
	TableSoccer
	numActivities
)

// NumActivities is the number of distinct activities (9).
const NumActivities = int(numActivities)

// String returns the human-readable activity name.
func (a Activity) String() string {
	switch a {
	case Sitting:
		return "sitting"
	case Resting:
		return "resting"
	case Working:
		return "working"
	case Driving:
		return "driving"
	case Lunch:
		return "lunch"
	case Cycling:
		return "cycling"
	case Walking:
		return "walking"
	case Stairs:
		return "stairs"
	case TableSoccer:
		return "table_soccer"
	default:
		return fmt.Sprintf("activity(%d)", int(a))
	}
}

// Valid reports whether a names one of the nine protocol activities.
func (a Activity) Valid() bool { return a >= 0 && a < numActivities }

// profile captures how an activity shapes the synthetic signals.
type profile struct {
	// hrLow/hrHigh bound the steady-state heart rate (BPM) the activity
	// drives a median subject to.
	hrLow, hrHigh float64
	// motionRMS is the RMS wrist acceleration (in g) beyond gravity.
	motionRMS float64
	// stepHz is the dominant periodic motion frequency (0 = aperiodic).
	stepHz float64
	// burstiness in [0,1] mixes continuous rhythm (0) with irregular
	// bursts (1), e.g. table soccer.
	burstiness float64
	// protocolMin is the DaLiA-like protocol duration in minutes.
	protocolMin float64
}

// profiles is ordered by Activity value. motionRMS is strictly increasing,
// which fixes the difficulty ranking (see DifficultyID): higher wrist
// acceleration ⇒ more motion artifact ⇒ harder HR estimation.
var profiles = [numActivities]profile{
	Sitting:     {hrLow: 58, hrHigh: 74, motionRMS: 0.015, stepHz: 0, burstiness: 0.1, protocolMin: 10},
	Resting:     {hrLow: 55, hrHigh: 70, motionRMS: 0.025, stepHz: 0, burstiness: 0.1, protocolMin: 45},
	Working:     {hrLow: 62, hrHigh: 80, motionRMS: 0.06, stepHz: 0, burstiness: 0.4, protocolMin: 20},
	Driving:     {hrLow: 65, hrHigh: 85, motionRMS: 0.11, stepHz: 4.2, burstiness: 0.2, protocolMin: 15},
	Lunch:       {hrLow: 63, hrHigh: 82, motionRMS: 0.19, stepHz: 0.7, burstiness: 0.5, protocolMin: 30},
	Cycling:     {hrLow: 92, hrHigh: 128, motionRMS: 0.32, stepHz: 1.3, burstiness: 0.15, protocolMin: 8},
	Walking:     {hrLow: 82, hrHigh: 108, motionRMS: 0.52, stepHz: 1.9, burstiness: 0.1, protocolMin: 10},
	Stairs:      {hrLow: 98, hrHigh: 132, motionRMS: 0.74, stepHz: 2.1, burstiness: 0.15, protocolMin: 5},
	TableSoccer: {hrLow: 95, hrHigh: 140, motionRMS: 1.05, stepHz: 2.6, burstiness: 0.8, protocolMin: 5},
}

// DifficultyID returns the 1-based difficulty rank of an activity, ordered
// by mean wrist-acceleration energy as in the paper's ref [19]: 1 is the
// stillest activity (sitting), 9 the most motion-corrupted (table soccer).
func (a Activity) DifficultyID() int {
	if !a.Valid() {
		return 0
	}
	// profiles is ordered by increasing motionRMS, so the Activity value
	// itself is the zero-based rank. Asserted by TestDifficultyOrdering.
	return int(a) + 1
}

// Activities returns all nine activities in difficulty order.
func Activities() []Activity {
	out := make([]Activity, NumActivities)
	for i := range out {
		out[i] = Activity(i)
	}
	return out
}

// protocol is the within-session activity order. DaLiA interleaves breaks;
// we fold all break time into the Resting slots so the total per-subject
// duration is ≈150 min (15 subjects ⇒ ≈37.5 h, matching the paper).
var protocol = []Activity{
	Sitting, Resting, Stairs, Resting, TableSoccer, Resting,
	Cycling, Resting, Driving, Resting, Lunch, Resting,
	Walking, Resting, Working,
}

// restSlots counts the Resting entries in protocol; each slot receives an
// equal share of Resting's protocolMin budget.
func restSlots() int {
	n := 0
	for _, a := range protocol {
		if a == Resting {
			n++
		}
	}
	return n
}
