package serve

import (
	"sync"

	"repro/internal/models"
)

// modelSlot is the coalescer's handle on one zoo model. Estimators are
// not safe for concurrent use (layer scratch is reused between calls), so
// the slot hands out worker clones from a free list when the model
// implements models.WorkerCloner, and serializes callers on the single
// shared instance otherwise. Clones share immutable weights, and batched
// inference is bitwise identical to serial inference (the PR 5
// invariant), so which clone serves which window never shows in the
// results — the property the cross-session coalescer rests on.
type modelSlot struct {
	name string
	base models.HREstimator

	mu   sync.Mutex
	idle []models.HREstimator // parked clones (cloners only)
}

// acquire returns an estimator instance private to the caller until
// release(m, shared) is called. For non-cloneable models shared is true
// and the slot's mutex stays held for the duration, serializing inference
// on the shared instance.
func (s *modelSlot) acquire() (m models.HREstimator, shared bool) {
	s.mu.Lock()
	if n := len(s.idle); n > 0 {
		m = s.idle[n-1]
		s.idle = s.idle[:n-1]
	} else if c, ok := s.base.(models.WorkerCloner); ok {
		m = c.CloneEstimator()
	} else {
		// Shared sequential instance: hold the lock across the inference.
		return s.base, true
	}
	s.mu.Unlock()
	return m, false
}

// release returns what acquire handed out: it parks a clone on the free
// list, or unlocks the shared instance.
func (s *modelSlot) release(m models.HREstimator, shared bool) {
	if !shared {
		s.mu.Lock()
		s.idle = append(s.idle, m)
	}
	s.mu.Unlock()
}
