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
	if !bytes.Equal(key, encodeKey(row[t.schema.Primary])) {
		return ErrPKChange
	}
	ts := t.shardFor(key)
	ts.mu.Lock()
	defer ts.mu.Unlock()
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

// Stats summarizes a table for monitoring. Engine-wide numbers have
// their own accessors: Engine.CompactionStats, Engine.BlockCacheStats,
// Engine.Health and Engine.Shards.
type Stats struct {
	Rows       int
	Segments   int // segment files currently serving reads
	IndexNames []string
}

// Stats returns the table's live-row count and segment count (summed
// over shards) and index inventory (identical on every shard by
// construction).
func (t *Table) Stats() Stats {
	var s Stats
	for _, ts := range t.shards {
		ts.mu.RLock()
		s.Rows += ts.count
		s.Segments += len(ts.segs)
		ts.mu.RUnlock()
	}
	ts := t.shards[0]
	ts.mu.RLock()
	for name := range ts.secondary {
		s.IndexNames = append(s.IndexNames, name)
	}
	ts.mu.RUnlock()
	sortKeys(s.IndexNames)
	return s
}
