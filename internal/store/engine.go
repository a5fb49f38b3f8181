package store

import (
	"fmt"
	"strings"
)

// Engine is the storage-engine abstraction the layers above the store
// program against: a durable (or in-memory) set of tables with
// transactional secondary indexes, compaction and crash recovery. *DB
// is the canonical implementation — a hash-partitioned set of Shards,
// of which the pre-shard single-WAL database is the one-shard special
// case. Callers that only need an Engine (core.PersistAll, the
// warehouse facade, the CLIs) stay agnostic of the shard count and of
// any future engine (e.g. a remote or multi-node store).
type Engine interface {
	// CreateTable creates a table with the given schema on every
	// shard; creating an existing table with an identical schema is a
	// no-op.
	CreateTable(s Schema) (*Table, error)
	// Table returns the named table, or an error if it does not exist.
	Table(name string) (*Table, error)
	// Shards returns the engine's partition count (1 for unsharded).
	Shards() int
	// Sync flushes buffered log records to stable storage.
	Sync() error
	// CompactionStats reports compaction activity — minor/major run
	// counts, rows/bytes rewritten, trigger backlog and the last
	// compaction error — summed over shards.
	CompactionStats() CompactionStats
	// BlockCacheStats snapshots the engine-wide decoded-block cache
	// shared by every shard's segments.
	BlockCacheStats() CacheStats
	// LogSize returns the total bytes of write-ahead log.
	LogSize() int64
	// Health reports the engine's degradation state — the
	// failed-compaction write latch and recovery losses — so callers
	// (daemons, CLIs) can act on it up front instead of discovering a
	// dead shard via the first failed write.
	Health() Health
	// Close flushes and closes the engine.
	Close() error
}

var _ Engine = (*DB)(nil)

// Health is an engine's degradation report. The zero value means fully
// healthy: every shard accepts writes and recovery lost nothing.
type Health struct {
	// ReadOnly reports that at least one shard's durable log was lost
	// to a failed compaction swap: the shard (and so the engine)
	// refuses writes until the database is reopened, but reads keep
	// serving the committed state.
	ReadOnly bool
	// FailedShards lists the shard ids refusing writes, in order.
	FailedShards []int
	// Reason is the first failed shard's latched error, "" when none.
	Reason string
	// RecoveredWithLoss reports that open truncated a corrupt WAL tail
	// or fell back to WAL-only recovery after an unreadable segment
	// manifest on some shard. Writes still work; data from the torn
	// tail is gone.
	RecoveredWithLoss bool
	// DroppedRecords counts WAL records dropped during recovery,
	// summed over shards.
	DroppedRecords int
}

// Ok reports whether the engine is fully healthy — writable everywhere
// and recovered without loss.
func (h Health) Ok() bool {
	return !h.ReadOnly && !h.RecoveredWithLoss
}

// String renders the health state for logs and plan lines.
func (h Health) String() string {
	if h.Ok() {
		return "ok"
	}
	var parts []string
	if h.ReadOnly {
		parts = append(parts, fmt.Sprintf("read-only (%d shard(s) refusing writes: %s)",
			len(h.FailedShards), h.Reason))
	}
	if h.RecoveredWithLoss {
		parts = append(parts, fmt.Sprintf("recovered with loss (%d record(s) dropped)",
			h.DroppedRecords))
	}
	return strings.Join(parts, "; ")
}
