//! The write path (§3.6): inserts and deletes, each split into a durability
//! half (log to the WAL and fsync) and a structure half (apply to the heap,
//! the refine codes and the trees), plus the snapshot that empties the log
//! (DESIGN.md §9).

use super::HdIndex;
use crate::rdb;
use hd_core::api::WriteStats;
use hd_storage::WalRecord;
use std::io;
use std::sync::atomic::Ordering;

impl HdIndex {
    /// Inserts a new object (§3.6): log to the WAL and fsync, then append
    /// the descriptor, compute its reference distances and Hilbert keys, and
    /// insert into every RDB-tree. The reference set is deliberately not
    /// re-selected.
    pub fn insert(&mut self, vector: &[f32]) -> io::Result<u64> {
        let id = self.log_insert(vector)?;
        self.apply_insert(id, vector)?;
        Ok(id)
    }

    /// The durability half of [`Self::insert`]: checks the dimensionality,
    /// then reserves the id and logs and fsyncs the record. Takes `&self`
    /// so the serving engine can log under a shard *read* lock — the fsync
    /// never blocks searches — and apply under the write lock afterwards.
    /// Callers splitting the halves must apply in id order (the engine's
    /// append gate guarantees it).
    pub fn log_insert(&self, vector: &[f32]) -> io::Result<u64> {
        if vector.len() != self.dim {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "insert has {} dimensions but the index has {}",
                    vector.len(),
                    self.dim
                ),
            ));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.wal.append(&WalRecord::Insert {
            id,
            vector: vector.to_vec(),
        })?;
        self.wal.commit()?;
        Ok(id)
    }

    /// The structure half of [`Self::insert`], also the replay path:
    /// normalizes (the WAL stores the caller's raw vector), appends the
    /// heap slot, and upserts into every tree.
    pub fn apply_insert(&mut self, id: u64, vector: &[f32]) -> io::Result<()> {
        let expected_slot = match &self.id_map {
            None => id,
            Some(map) => map.ids().len() as u64,
        };
        if self.heap.len() != expected_slot {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "insert of id {id} expects heap slot {expected_slot} but the heap holds \
                     {} slots — a previous apply failed midway; reopen the index to recover \
                     from the WAL",
                    self.heap.len()
                ),
            ));
        }
        // The WAL stores the caller's raw vector; prepare normalizes it and
        // computes the leaf payload (its reference distances).
        let prepared = self.refs.prepare(vector)?;
        self.append_prepared(id, prepared.vector(), prepared.ref_dists())?;
        self.tombstones.remove(id);
        Ok(())
    }

    /// Appends object `id` — `vector` already in index form, `ref_dists`
    /// its reference distances, which become its leaf codes on the
    /// persisted grid — to the heap, the refine codes, the id map and every
    /// tree.
    pub(super) fn append_prepared(
        &mut self,
        id: u64,
        vector: &[f32],
        ref_dists: &[f32],
    ) -> io::Result<()> {
        self.heap.append(vector)?;
        if let Some(codes) = &mut self.codes {
            codes.push(vector);
        }
        if let Some(map) = &mut self.id_map {
            map.push(id)?; // id == next_id - 1 > every mapped id: stays sorted
        }
        let value = self.ref_grid.encode_value(ref_dists);
        let (mut sub, mut key) = (Vec::new(), Vec::new());
        for g in 0..self.trees.len() {
            self.partitioning.project_into(vector, g, &mut sub);
            let curve = &self.curves[g];
            key.resize(rdb::key_len(curve.key_len()), 0);
            rdb::encode_key_into(curve, &sub, self.params.domain, id, &mut key);
            // Upsert: replaying over a partially applied crash state meets
            // the same key again and must not grow a duplicate entry.
            self.trees[g].upsert(&key, &value)?;
        }
        Ok(())
    }

    /// Deletes an object (§3.6): logged, then tombstoned — never returned
    /// again. Space is reclaimed by [`Self::compact`].
    pub fn delete(&mut self, id: u64) -> io::Result<()> {
        if !self.contains_id(id) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("delete of unknown object id {id}"),
            ));
        }
        self.log_delete(id)?;
        self.apply_delete(id)
    }

    /// The durability half of [`Self::delete`] (see [`Self::log_insert`]
    /// for the split's locking rationale).
    pub fn log_delete(&self, id: u64) -> io::Result<()> {
        self.wal.append(&WalRecord::Delete { id })?;
        self.wal.commit()?;
        Ok(())
    }

    /// The structure half of [`Self::delete`], also the replay path.
    pub fn apply_delete(&mut self, id: u64) -> io::Result<()> {
        self.tombstones.insert(id);
        Ok(())
    }

    /// Committed WAL bytes the next open would have to replay — `0` right
    /// after a snapshot emptied the log. A persistently growing tail means
    /// nobody is calling [`Self::save`]; health checks surface it.
    pub fn wal_tail_bytes(&self) -> u64 {
        self.wal.position()
    }

    /// Write-path counters (WAL traffic, recovery, compactions) surfaced
    /// through [`IndexStats`](hd_core::api::IndexStats).
    pub fn write_stats(&self) -> WriteStats {
        let c = self.wal.counters();
        WriteStats {
            wal_records: c.records_appended,
            wal_commits: c.commits,
            wal_replayed: c.records_replayed,
            compactions: self.compactions,
        }
    }

    /// Takes an atomic snapshot: commits the WAL, fsyncs the data files,
    /// logs a checkpoint, renames the new meta into place (the commit
    /// point) and empties the log. A crash at any step leaves either the
    /// old snapshot plus a replayable log or the new snapshot — never a
    /// state that loses a committed write.
    pub fn save(&mut self) -> io::Result<()> {
        self.wal.commit()?;
        for pool in self.pools() {
            pool.sync()?;
        }
        self.commit()
    }
}
