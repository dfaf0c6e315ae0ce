package sketch

import (
	"repro/internal/gss"
	"repro/internal/stream"
)

// PartitionMigrator is the migration surface of a sketch: export the
// edges whose source node a predicate claims (as plain stream items)
// and drop them once the new owner absorbed the copy. Every backend
// implements it as part of Sketch; the wrappers forward it, so the
// server can offer partition export/drop over any deployment.
type PartitionMigrator interface {
	// ExportPartition streams every sketch edge whose source node
	// moves under the predicate to emit, without modifying the sketch.
	ExportPartition(moving func(id string) bool, emit func(stream.Item) error) (gss.PartitionReport, error)
	// DropPartition removes those edges and subtracts items from the
	// stream-item count (clamped to the items present).
	DropPartition(moving func(id string) bool, items int64) (gss.PartitionReport, error)
	// AbsorbItems adds n to the stream-item count without touching the
	// matrix — the drain-mode counter rebase (see gss.GSS.AbsorbItems).
	AbsorbItems(n int64) error
}

// ExportPartition forwards to the wrapped sketch under the global
// mutex; a long export stalls other operations, which is the Locked
// contract for every compound operation.
func (l *Locked) ExportPartition(moving func(id string) bool, emit func(stream.Item) error) (gss.PartitionReport, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sk.ExportPartition(moving, emit)
}

// DropPartition forwards to the wrapped sketch under the global mutex.
func (l *Locked) DropPartition(moving func(id string) bool, items int64) (gss.PartitionReport, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sk.DropPartition(moving, items)
}

// AbsorbItems forwards to the wrapped sketch under the global mutex.
func (l *Locked) AbsorbItems(n int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sk.AbsorbItems(n)
}

// ExportPartition dispatches to the current sketch (per-call, matching
// Hot's swap semantics).
func (h *Hot) ExportPartition(moving func(id string) bool, emit func(stream.Item) error) (gss.PartitionReport, error) {
	return h.Current().ExportPartition(moving, emit)
}

// DropPartition dispatches to the current sketch.
func (h *Hot) DropPartition(moving func(id string) bool, items int64) (gss.PartitionReport, error) {
	return h.Current().DropPartition(moving, items)
}

// AbsorbItems dispatches to the current sketch.
func (h *Hot) AbsorbItems(n int64) error { return h.Current().AbsorbItems(n) }
