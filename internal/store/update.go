package store

import "bytes"

// Update replaces the row with the given primary key. The new row must
// carry the same primary key; secondary indexes are maintained. The
// operation is logged as delete+insert on the row's home shard, which
// replays correctly.
func (t *Table) Update(pk Value, row Row) error {
	if err := t.schema.validate(row); err != nil {
		return err
	}
	key := encodeKey(pk)
	ts := t.shardFor(key)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.updateLocked(key, pk, row)
}

func (ts *tableShard) updateLocked(key []byte, pk Value, row Row) error {
	newKey := encodeKey(row[ts.schema.Primary])
	if !bytes.Equal(key, newKey) {
		return ErrPKChange
	}
	old, live, err := ts.liveGet(key)
	if err != nil {
		return err
	}
	if !live {
		return ErrNotFound
	}
	if err := ts.shard.logDelete(ts.schema.Name, pk); err != nil {
		return err
	}
	if err := ts.shard.logInsert(ts.schema.Name, row); err != nil {
		return err
	}
	ts.applyDelete(key, old)
	ts.applyInsert(key, row)
	return nil
}

// Upsert inserts the row, replacing any existing row with the same
// primary key.
func (t *Table) Upsert(row Row) error {
	if err := t.schema.validate(row); err != nil {
		return err
	}
	pk := row[t.schema.Primary]
	key := encodeKey(pk)
	ts := t.shardFor(key)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	_, live, err := ts.liveGet(key)
	if err != nil {
		return err
	}
	if live {
		return ts.updateLocked(key, pk, row)
	}
	return ts.insertLocked(key, row)
}

// LookupRange returns rows whose indexed column value lies in [lo, hi),
// in ascending (column value, primary key) order. The column must have a
// secondary index. With multiple shards the per-shard walks fan out and
// the sorted partial results merge.
func (t *Table) LookupRange(col string, lo, hi Value) ([]Row, error) {
	parts := make([][]Row, len(t.shards))
	err := fanOut(len(t.shards), func(i int) (err error) {
		parts[i], err = t.shards[i].lookupRange(col, lo, hi)
		return err
	})
	if err != nil {
		return nil, err
	}
	return kwayMerge(parts, t.lessByColPK(t.schema.colIndex(col))), nil
}

func (ts *tableShard) lookupRange(col string, lo, hi Value) ([]Row, error) {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	idx, ok := ts.secondary[col]
	if !ok {
		return nil, ErrNoIndex
	}
	var out []Row
	var walkErr error
	idx.AscendRange(encodeKey(lo), encodeKey(hi), func(_ []byte, v interface{}) bool {
		out, walkErr = ts.appendResolved(v.(*postingList), out, nil)
		return walkErr == nil
	})
	if walkErr != nil {
		return nil, walkErr
	}
	return out, nil
}

// Stats summarizes a table for monitoring.
type Stats struct {
	Rows     int
	Shards   int
	Segments int // segment files currently serving reads
	// FailedShards counts shards refusing writes behind the
	// failed-compaction latch (see Engine.Health); non-zero means the
	// table is effectively read-only until the database is reopened.
	FailedShards int
	Indexes      int
	IndexNames   []string
	// Compaction aggregates the shards' compaction counters (compaction
	// is per shard and covers every table on it, so these are engine-
	// wide numbers surfaced here for one-stop monitoring).
	Compaction CompactionStats
	// Cache snapshots the engine-wide decoded-block cache (shared by
	// every shard and table; surfaced here for one-stop monitoring).
	Cache CacheStats
}

// Stats returns the table's live-row count and segment count (summed
// over shards) and index inventory (identical on every shard by
// construction).
func (t *Table) Stats() Stats {
	s := Stats{Shards: len(t.shards)}
	for _, ts := range t.shards {
		ts.mu.RLock()
		s.Rows += ts.count
		s.Segments += len(ts.segs)
		if ts.shard != nil && ts.shard.failed != nil {
			s.FailedShards++
		}
		ts.mu.RUnlock()
		if ts.shard != nil {
			addShardCompactionStats(&s.Compaction, ts.shard)
		}
	}
	ts := t.shards[0]
	ts.mu.RLock()
	s.Indexes = len(ts.secondary)
	for name := range ts.secondary {
		s.IndexNames = append(s.IndexNames, name)
	}
	ts.mu.RUnlock()
	sortKeys(s.IndexNames)
	if ts.shard != nil {
		s.Cache = ts.shard.cache.stats()
	}
	return s
}
