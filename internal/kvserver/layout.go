package kvserver

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"camp/internal/persist"
)

// Data-directory layout. The server owns the root (flock on LOCK) and each
// shard persists independently under its own subdirectory:
//
//	data-dir/
//	  LOCK            server-wide flock; a second server refuses to start
//	  shard-000/      shard 0's snap-*.camp, aof-*.log and LOCK
//	  shard-001/      ...
//
// A directory written with a different shard count (shard-NNN dirs whose
// number does not match the configured -shards; the default tracks
// GOMAXPROCS, so this happens on any core-count change) is migrated in place
// at open. Migration recovers every old shard dir read-only into the new
// in-memory shards, stages the new layout as shard-NNN.new dirs each holding
// a generation-1 snapshot in eviction order, and then swaps: a MIGRATE marker
// (recording the target count) commits the staged set, sources are deleted,
// staged dirs renamed into place, marker removed. A crash before the marker
// leaves the sources untouched (stray .new dirs are discarded); a crash after
// it is finished from the staged dirs at the next open — at no point is the
// only copy of the data mid-write.
const (
	shardDirPrefix = "shard-"
	stageSuffix    = ".new"
	migrateMarker  = "MIGRATE"
)

func shardDirName(i int) string { return fmt.Sprintf("%s%03d", shardDirPrefix, i) }

// openPersistence acquires the root lock, migrates old layouts, and opens
// one persist.Manager per shard, replaying each shard's journal in parallel.
func (s *Server) openPersistence() error {
	p := s.cfg.Persist
	lock, err := persist.LockDir(p.Dir)
	if err != nil {
		return err
	}
	ok := false
	defer func() {
		if !ok {
			for _, sh := range s.shards {
				if sh.mgr != nil {
					sh.mgr.Close()
					sh.mgr = nil
				}
			}
			lock.Release()
		}
	}()
	s.rootLock = lock

	if err := finishMigration(p.Dir, s.logf); err != nil {
		return err
	}
	oldIdx, err := shardDirIndices(p.Dir)
	if err != nil {
		return err
	}
	if layoutMismatch(oldIdx, len(s.shards)) {
		if err := s.migrate(p.Dir, oldIdx); err != nil {
			return err
		}
	}

	// Each shard's journal is self-contained, so recovery parallelizes
	// across shards (and across cores) for a faster warm restart.
	var (
		wg   sync.WaitGroup
		recs = make([]persist.RecoverStats, len(s.shards))
		errs = make([]error, len(s.shards))
	)
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			// Replay data ops through the store; track the replication
			// position on the side (last record wins — it names exactly the
			// ops replayed before it). A flush resets it: flushes mark a
			// replica bootstrap whose stream position is not known until
			// the position record that follows the staged entries.
			apply := func(op persist.Op) error {
				switch op.Kind {
				case persist.KindPosition:
					sh.replPos = op.Pos
					return nil
				case persist.KindFlush:
					// Only the keyless (global) flush marks a bootstrap; a
					// keyed tenant flush is an ordinary data op that leaves
					// the stream position meaningful.
					if op.Key == "" {
						sh.replPos = persist.Position{}
					}
				}
				return sh.store.restore(op)
			}
			mgr, rec, err := persist.Open(persist.Options{
				Dir:      filepath.Join(p.Dir, shardDirName(i)),
				Fsync:    p.Fsync,
				AOFLimit: p.AOFLimit,
				Logf:     p.Logf,
				FS:       p.FS,
			}, apply)
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
				return
			}
			sh.mgr = mgr
			recs[i] = rec
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	var agg persist.RecoverStats
	for _, rec := range recs {
		agg.SnapshotOps += rec.SnapshotOps
		agg.ReplayedOps += rec.ReplayedOps
		agg.TruncatedBytes += rec.TruncatedBytes
		if rec.Generation > agg.Generation {
			agg.Generation = rec.Generation
		}
	}
	s.recovered = agg
	ok = true
	return nil
}

// layoutMismatch reports whether the on-disk shard dirs are anything other
// than absent or exactly shard-000..shard-(n-1).
func layoutMismatch(idx []int, n int) bool {
	if len(idx) == 0 {
		return false
	}
	if len(idx) != n {
		return true
	}
	for i, v := range idx {
		if v != i {
			return true
		}
	}
	return false
}

// migrate rebuilds the data directory for the configured shard count: every
// old shard dir is recovered read-only into the new in-memory shards, the new
// layout is staged and swapped in, and the stores are reset so the per-shard
// manager opens that follow replay the staged snapshots — recovery stays a
// single code path.
func (s *Server) migrate(dir string, oldIdx []int) error {
	s.logf("kvserver: migrating data dir %s from %d to %d shards", dir, len(oldIdx), len(s.shards))
	for _, i := range oldIdx {
		src := filepath.Join(dir, shardDirName(i))
		// Each source's op stream covers a disjoint key subset, so a flush
		// record in it clears exactly the keys this source has applied so
		// far — tracked here, deleted from whichever new shard they routed
		// to.
		applied := make(map[string]struct{})
		apply := func(op persist.Op) error {
			switch op.Kind {
			case persist.KindFlush:
				for k := range applied {
					if op.Key != "" && !keyInTenant(op.Key, k) {
						continue // tenant-scoped flush leaves other namespaces
					}
					if err := s.shardFor(k).store.restore(persist.Op{Kind: persist.KindDelete, Key: k}); err != nil {
						return err
					}
					delete(applied, k)
				}
				return nil
			case persist.KindTenant:
				// Tenant records have no key to route by: every new shard
				// learns the tenant and its quota, like scale records.
				for _, sh := range s.shards {
					if err := sh.store.restore(op); err != nil {
						return err
					}
				}
				return nil
			case persist.KindScale:
				// Policy-level state with no key to route by: every new
				// shard inherits the source's learned scale (it only
				// widens, so overlapping sources compose).
				for _, sh := range s.shards {
					if err := sh.store.restore(op); err != nil {
						return err
					}
				}
				return nil
			case persist.KindPosition:
				// Positions are byte offsets into the source layout's
				// journals; they do not survive a re-sharding.
				return nil
			case persist.KindSet, persist.KindSetPrio:
				applied[op.Key] = struct{}{}
			case persist.KindDelete:
				delete(applied, op.Key)
			}
			return s.shardFor(op.Key).store.restore(op)
		}
		if _, err := persist.RecoverDir(src, s.cfg.Persist.Logf, apply); err != nil {
			return fmt.Errorf("kvserver: migrate: recover %s: %w", src, err)
		}
	}

	// Stage the new layout: a generation-1 snapshot per shard, written in
	// eviction order so the warm start is order-faithful.
	for i, sh := range s.shards {
		stage := filepath.Join(dir, shardDirName(i)+stageSuffix)
		if err := os.RemoveAll(stage); err != nil {
			return fmt.Errorf("kvserver: migrate: %w", err)
		}
		if err := os.MkdirAll(stage, 0o755); err != nil {
			return fmt.Errorf("kvserver: migrate: %w", err)
		}
		if _, err := persist.WriteSnapshotFile(persist.SnapshotPath(stage, 1), emitOps(sh.store.collectOps())); err != nil {
			return fmt.Errorf("kvserver: migrate: stage shard %d: %w", i, err)
		}
	}
	if err := writeMarker(dir, len(s.shards)); err != nil {
		return err
	}
	if err := swapStaged(dir, len(s.shards)); err != nil {
		return err
	}
	// Reset the in-memory stores; openPersistence's manager opens replay
	// the staged snapshots into them.
	for _, sh := range s.shards {
		sh.store.flush()
	}
	return nil
}

// finishMigration completes or discards the leftovers of an interrupted
// migration. With no MIGRATE marker, staged dirs are an aborted attempt
// whose sources are intact: discard them. With the marker, the staged set is
// complete and authoritative: redo the swap.
func finishMigration(dir string, logf func(format string, args ...any)) error {
	n, ok, err := readMarker(dir)
	if err != nil {
		return err
	}
	if !ok {
		ents, err := os.ReadDir(dir)
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return fmt.Errorf("kvserver: read data dir: %w", err)
		}
		for _, e := range ents {
			if e.IsDir() && strings.HasPrefix(e.Name(), shardDirPrefix) && strings.HasSuffix(e.Name(), stageSuffix) {
				if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
					return fmt.Errorf("kvserver: discard stale staging dir: %w", err)
				}
			}
		}
		return nil
	}
	logf("kvserver: finishing interrupted migration of %s to %d shards", dir, n)
	return swapStaged(dir, n)
}

// swapStaged commits a staged layout of n shards: old shard dirs are deleted,
// staged dirs renamed into place, and the marker removed. It is idempotent —
// a crash at any point is finished by running it again — because a final
// shard-NNN dir is only ever deleted while its .new replacement still exists
// (or its index is beyond n).
func swapStaged(dir string, n int) error {
	idx, err := shardDirIndices(dir)
	if err != nil {
		return err
	}
	// Old source dirs beyond the new count have no staged replacement.
	for _, i := range idx {
		if i >= n {
			if err := os.RemoveAll(filepath.Join(dir, shardDirName(i))); err != nil {
				return fmt.Errorf("kvserver: migrate: remove old shard dir: %w", err)
			}
		}
	}
	for i := 0; i < n; i++ {
		stage := filepath.Join(dir, shardDirName(i)+stageSuffix)
		if _, err := os.Stat(stage); err != nil {
			if os.IsNotExist(err) {
				continue // already swapped in a previous attempt
			}
			return fmt.Errorf("kvserver: migrate: %w", err)
		}
		final := filepath.Join(dir, shardDirName(i))
		if err := os.RemoveAll(final); err != nil {
			return fmt.Errorf("kvserver: migrate: remove old shard dir: %w", err)
		}
		if err := os.Rename(stage, final); err != nil {
			return fmt.Errorf("kvserver: migrate: swap shard dir: %w", err)
		}
	}
	// Persist the renames BEFORE dropping the marker: nothing orders the
	// directory operations until an fsync, and if the marker unlink reached
	// disk while a rename had not, the next open would classify the
	// still-staged dir as an aborted migration and discard it — the only
	// copy of that shard's data.
	if err := persist.SyncDir(dir); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(dir, migrateMarker)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("kvserver: migrate: remove marker: %w", err)
	}
	return persist.SyncDir(dir)
}

// writeMarker atomically creates the MIGRATE marker recording the target
// shard count — the commit point of a migration.
func writeMarker(dir string, n int) error {
	tmp := filepath.Join(dir, migrateMarker+".tmp")
	if err := os.WriteFile(tmp, []byte(fmt.Sprintf("shards %d\n", n)), 0o644); err != nil {
		return fmt.Errorf("kvserver: migrate: write marker: %w", err)
	}
	f, err := os.Open(tmp)
	if err == nil {
		err = f.Sync()
		f.Close()
	}
	if err != nil {
		return fmt.Errorf("kvserver: migrate: sync marker: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, migrateMarker)); err != nil {
		return fmt.Errorf("kvserver: migrate: commit marker: %w", err)
	}
	return persist.SyncDir(dir)
}

func readMarker(dir string) (n int, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, migrateMarker))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, fmt.Errorf("kvserver: read migrate marker: %w", err)
	}
	fields := strings.Fields(string(data))
	if len(fields) != 2 || fields[0] != "shards" {
		return 0, false, fmt.Errorf("kvserver: malformed migrate marker %q", data)
	}
	n, perr := strconv.Atoi(fields[1])
	if perr != nil || n < 1 {
		return 0, false, fmt.Errorf("kvserver: malformed migrate marker %q", data)
	}
	return n, true, nil
}

// shardDirIndices lists the shard-NNN directories in dir, ascending.
// Staging dirs (.new) are not included.
func shardDirIndices(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("kvserver: read data dir: %w", err)
	}
	var idx []int
	for _, e := range ents {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), shardDirPrefix) {
			continue
		}
		num := strings.TrimPrefix(e.Name(), shardDirPrefix)
		i, err := strconv.Atoi(num)
		if err != nil || i < 0 || shardDirName(i) != e.Name() {
			continue // not one of ours (includes .new staging dirs)
		}
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx, nil
}
