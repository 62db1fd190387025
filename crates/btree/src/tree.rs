//! The B+-tree proper: bulk load, insert, point/range access.

use crate::node::{internal_capacity, leaf_capacity, Header, Internal, Leaf, NO_PAGE};
use hd_storage::BufferPool;
use std::io;
use std::sync::Arc;

/// A lending source of sorted `(key, value)` entries for bulk loading.
///
/// This is the borrowed-entry analogue of `Iterator<Item = (Vec<u8>,
/// Vec<u8>)>`: each call may invalidate the previous borrow, so the source
/// can hand out slices into an internal buffer it reuses — exactly what an
/// external-merge reader does. `std::iter::Iterator` cannot express this
/// (its items must outlive the iterator borrow), which is why bulk loading
/// from disk-resident runs needs its own trait.
pub trait EntrySource {
    /// Returns the next entry, or `None` when the source is exhausted. The
    /// returned slices are only valid until the next call.
    fn next_entry(&mut self) -> io::Result<Option<(&[u8], &[u8])>>;
}

/// A disk B+-tree over fixed-size keys and values (see crate docs).
///
/// The header lives on page 0 of the backing pool; every structural change
/// is persisted, so a tree can be re-opened from its pool/file.
pub struct BTree {
    pool: Arc<BufferPool>,
    key_len: usize,
    val_len: usize,
    root: u64,
    first_leaf: u64,
    last_leaf: u64,
    count: u64,
    height: u32,
}

impl std::fmt::Debug for BTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTree")
            .field("count", &self.count)
            .field("height", &self.height)
            .field("key_len", &self.key_len)
            .field("val_len", &self.val_len)
            .finish()
    }
}

impl BTree {
    /// Creates an empty tree on a fresh pool (allocates the header page).
    ///
    /// # Panics
    /// Panics if the pool already contains pages, if key/value sizes are 0,
    /// or if a page cannot hold at least one leaf entry and two separators.
    pub fn create(pool: Arc<BufferPool>, key_len: usize, val_len: usize) -> io::Result<Self> {
        assert!(
            key_len > 0 && val_len > 0,
            "key/value sizes must be positive"
        );
        assert_eq!(pool.num_pages(), 0, "pool must be fresh");
        let ps = pool.page_size();
        assert!(
            leaf_capacity(ps, key_len, val_len) >= 1,
            "page too small for a single entry"
        );
        assert!(
            internal_capacity(ps, key_len) >= 2,
            "page too small for internal fan-out"
        );
        let hdr_page = pool.allocate_page()?;
        debug_assert_eq!(hdr_page, 0);
        let mut hdr = vec![0u8; ps];
        Header::init(&mut hdr, key_len, val_len);
        pool.write(0, &hdr)?;
        Ok(Self {
            pool,
            key_len,
            val_len,
            root: NO_PAGE,
            first_leaf: NO_PAGE,
            last_leaf: NO_PAGE,
            count: 0,
            height: 0,
        })
    }

    /// Opens a tree previously created on this pool.
    pub fn open(pool: Arc<BufferPool>) -> io::Result<Self> {
        let hdr = pool.read(0)?;
        if !Header::validate(&hdr) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a B+-tree file (bad magic)",
            ));
        }
        Ok(Self {
            key_len: Header::key_len(&hdr),
            val_len: Header::val_len(&hdr),
            root: Header::root(&hdr),
            first_leaf: Header::first_leaf(&hdr),
            last_leaf: Header::last_leaf(&hdr),
            count: Header::count(&hdr),
            height: Header::height(&hdr),
            pool,
        })
    }

    pub fn len(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn height(&self) -> u32 {
        self.height
    }

    pub fn key_len(&self) -> usize {
        self.key_len
    }

    pub fn val_len(&self) -> usize {
        self.val_len
    }

    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Entries a leaf page can hold.
    pub fn leaf_order(&self) -> usize {
        leaf_capacity(self.pool.page_size(), self.key_len, self.val_len)
    }

    /// On-disk footprint in bytes.
    pub fn disk_bytes(&self) -> u64 {
        self.pool.disk_bytes()
    }

    fn persist_header(&self) -> io::Result<()> {
        let mut hdr = self.pool.read(0)?.to_vec();
        Header::set_root(&mut hdr, self.root);
        Header::set_first_leaf(&mut hdr, self.first_leaf);
        Header::set_last_leaf(&mut hdr, self.last_leaf);
        Header::set_count(&mut hdr, self.count);
        Header::set_height(&mut hdr, self.height);
        self.pool.write(0, &hdr)
    }

    /// Bulk-loads a **sorted** stream of owned entries into an empty tree,
    /// packing leaves to `fill` (1.0 = the paper's fully-packed offline
    /// build). Convenience wrapper over [`Self::bulk_load_stream`] for
    /// callers that already hold a `Vec`; the streaming entry point avoids
    /// the per-entry allocations entirely.
    ///
    /// # Panics
    /// Panics if the tree is non-empty, entries are mis-sized or unsorted
    /// (sortedness checked in debug builds), or `fill` ∉ (0, 1].
    pub fn bulk_load<I>(&mut self, entries: I, fill: f64) -> io::Result<()>
    where
        I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    {
        struct IterSource<I: Iterator<Item = (Vec<u8>, Vec<u8>)>> {
            it: I,
            cur: Option<(Vec<u8>, Vec<u8>)>,
        }
        impl<I: Iterator<Item = (Vec<u8>, Vec<u8>)>> EntrySource for IterSource<I> {
            fn next_entry(&mut self) -> io::Result<Option<(&[u8], &[u8])>> {
                self.cur = self.it.next();
                Ok(self.cur.as_ref().map(|(k, v)| (k.as_slice(), v.as_slice())))
            }
        }
        let mut src = IterSource {
            it: entries.into_iter(),
            cur: None,
        };
        self.bulk_load_stream(&mut src, fill)
    }

    /// Bulk-loads a **sorted** [`EntrySource`] into an empty tree — the
    /// single packing implementation behind both entry points. Entries are
    /// copied straight from the source's borrows into the leaf page under
    /// construction, so the whole load holds O(tree-height) memory beyond
    /// the page buffers no matter how many entries stream through: one leaf
    /// page + one lookahead page for sibling links, plus one `(first key,
    /// page id)` pair per filled page for the internal levels.
    ///
    /// # Panics
    /// Panics if the tree is non-empty, entries are mis-sized or unsorted
    /// (sortedness checked in debug builds), or `fill` ∉ (0, 1].
    pub fn bulk_load_stream<S>(&mut self, src: &mut S, fill: f64) -> io::Result<()>
    where
        S: EntrySource + ?Sized,
    {
        assert!(
            self.root == NO_PAGE && self.count == 0,
            "tree must be empty"
        );
        assert!(fill > 0.0 && fill <= 1.0, "fill factor must be in (0, 1]");
        let ps = self.pool.page_size();
        let cap = leaf_capacity(ps, self.key_len, self.val_len);
        let take = ((cap as f64 * fill) as usize).clamp(1, cap);

        // Stream leaves with a one-page lookahead so sibling links can be
        // written without revisiting flushed pages.
        let mut level: Vec<(Vec<u8>, u64)> = Vec::new(); // (first key, page id)
        let mut pending: Option<(Vec<u8>, u64)> = None;
        let mut cur = vec![0u8; ps];
        Leaf::init(&mut cur);
        let mut cur_count = 0usize;
        let mut cur_first: Vec<u8> = Vec::new();
        let mut total = 0u64;
        #[cfg(debug_assertions)]
        let mut prev_key: Vec<u8> = Vec::new();

        let mut flush = |cur: &mut Vec<u8>,
                         cur_count: &mut usize,
                         cur_first: &mut Vec<u8>,
                         pending: &mut Option<(Vec<u8>, u64)>,
                         level: &mut Vec<(Vec<u8>, u64)>|
         -> io::Result<()> {
            let id = self.pool.allocate_page()?;
            if let Some((mut pbuf, pid)) = pending.take() {
                Leaf::set_right(&mut pbuf, id);
                self.pool.write(pid, &pbuf)?;
                Leaf::set_left(cur, pid);
            } else {
                self.first_leaf = id;
            }
            Leaf::set_count(cur, *cur_count);
            level.push((std::mem::take(cur_first), id));
            let mut fresh = vec![0u8; ps];
            Leaf::init(&mut fresh);
            *pending = Some((std::mem::replace(cur, fresh), id));
            *cur_count = 0;
            Ok(())
        };

        while let Some((k, v)) = src.next_entry()? {
            assert_eq!(k.len(), self.key_len, "key size mismatch");
            assert_eq!(v.len(), self.val_len, "value size mismatch");
            #[cfg(debug_assertions)]
            {
                debug_assert!(
                    total == 0 || prev_key.as_slice() <= k,
                    "bulk_load input must be sorted"
                );
                prev_key.clear();
                prev_key.extend_from_slice(k);
            }
            if cur_count == take {
                flush(
                    &mut cur,
                    &mut cur_count,
                    &mut cur_first,
                    &mut pending,
                    &mut level,
                )?;
            }
            if cur_count == 0 {
                cur_first.clear();
                cur_first.extend_from_slice(k);
            }
            Leaf::write_entry(&mut cur, cur_count, k, v);
            cur_count += 1;
            total += 1;
        }
        if cur_count > 0 {
            flush(
                &mut cur,
                &mut cur_count,
                &mut cur_first,
                &mut pending,
                &mut level,
            )?;
        }
        if let Some((pbuf, pid)) = pending.take() {
            self.pool.write(pid, &pbuf)?;
            self.last_leaf = pid;
        }
        if total == 0 {
            return self.persist_header();
        }

        // Build internal levels bottom-up.
        self.height = 1;
        let ic = internal_capacity(ps, self.key_len);
        let fanout = ic + 1;
        while level.len() > 1 {
            let mut next: Vec<(Vec<u8>, u64)> = Vec::with_capacity(level.len().div_ceil(fanout));
            for chunk in level.chunks(fanout) {
                let id = self.pool.allocate_page()?;
                let mut buf = vec![0u8; ps];
                Internal::init(&mut buf);
                Internal::set_child0(&mut buf, chunk[0].1);
                for (i, (k, c)) in chunk[1..].iter().enumerate() {
                    Internal::write_pair(&mut buf, i, k, *c);
                }
                Internal::set_count(&mut buf, chunk.len() - 1);
                self.pool.write(id, &buf)?;
                next.push((chunk[0].0.clone(), id));
            }
            level = next;
            self.height += 1;
        }
        self.root = level[0].1;
        self.count = total;
        self.persist_header()
    }

    /// Descends to the leaf that would contain `key`.
    /// Returns `(leaf page id, leaf buffer, path of internal (page id, buffer))`.
    #[allow(clippy::type_complexity)]
    fn descend_to_leaf(&self, key: &[u8]) -> io::Result<(u64, Arc<[u8]>, Vec<(u64, Arc<[u8]>)>)> {
        let mut path = Vec::with_capacity(self.height as usize);
        let mut pid = self.root;
        let mut page = self.pool.read(pid)?;
        while !Leaf::is_leaf(&page) {
            let next = Internal::descend(&page, key, self.key_len);
            path.push((pid, page));
            pid = next;
            page = self.pool.read(pid)?;
        }
        Ok((pid, page, path))
    }

    /// Inserts an entry (duplicate keys allowed; they cluster together).
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> io::Result<()> {
        assert_eq!(key.len(), self.key_len, "key size mismatch");
        assert_eq!(value.len(), self.val_len, "value size mismatch");
        let ps = self.pool.page_size();

        if self.root == NO_PAGE {
            let id = self.pool.allocate_page()?;
            let mut buf = vec![0u8; ps];
            Leaf::init(&mut buf);
            Leaf::write_entry(&mut buf, 0, key, value);
            Leaf::set_count(&mut buf, 1);
            self.pool.write(id, &buf)?;
            self.root = id;
            self.first_leaf = id;
            self.last_leaf = id;
            self.count = 1;
            self.height = 1;
            return self.persist_header();
        }

        let (leaf_id, leaf_page, mut path) = self.descend_to_leaf(key)?;
        let mut leaf = leaf_page.to_vec();
        let cap = leaf_capacity(ps, self.key_len, self.val_len);
        let cnt = Leaf::count(&leaf);
        let slot = Leaf::lower_bound(&leaf, key, self.key_len, self.val_len);
        let entry = self.key_len + self.val_len;

        if cnt < cap {
            // Shift the tail one entry right and place the new entry.
            let start = Leaf::entry_off(slot, self.key_len, self.val_len);
            let end = Leaf::entry_off(cnt, self.key_len, self.val_len);
            leaf.copy_within(start..end, start + entry);
            Leaf::write_entry(&mut leaf, slot, key, value);
            Leaf::set_count(&mut leaf, cnt + 1);
            self.pool.write(leaf_id, &leaf)?;
            self.count += 1;
            return self.persist_header();
        }

        // Leaf split: materialize entries, insert, redistribute.
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = (0..cnt)
            .map(|s| {
                (
                    Leaf::key(&leaf, s, self.key_len, self.val_len).to_vec(),
                    Leaf::value(&leaf, s, self.key_len, self.val_len).to_vec(),
                )
            })
            .collect();
        entries.insert(slot, (key.to_vec(), value.to_vec()));
        let left_n = entries.len().div_ceil(2);

        let right_id = self.pool.allocate_page()?;
        let old_right = Leaf::right(&leaf);
        let mut new_left = vec![0u8; ps];
        Leaf::init(&mut new_left);
        Leaf::set_left(&mut new_left, Leaf::left(&leaf));
        Leaf::set_right(&mut new_left, right_id);
        for (s, (k, v)) in entries[..left_n].iter().enumerate() {
            Leaf::write_entry(&mut new_left, s, k, v);
        }
        Leaf::set_count(&mut new_left, left_n);

        let mut new_right = vec![0u8; ps];
        Leaf::init(&mut new_right);
        Leaf::set_left(&mut new_right, leaf_id);
        Leaf::set_right(&mut new_right, old_right);
        for (s, (k, v)) in entries[left_n..].iter().enumerate() {
            Leaf::write_entry(&mut new_right, s, k, v);
        }
        Leaf::set_count(&mut new_right, entries.len() - left_n);

        self.pool.write(leaf_id, &new_left)?;
        self.pool.write(right_id, &new_right)?;
        if old_right != NO_PAGE {
            let mut r = self.pool.read(old_right)?.to_vec();
            Leaf::set_left(&mut r, right_id);
            self.pool.write(old_right, &r)?;
        } else {
            self.last_leaf = right_id;
        }
        self.count += 1;

        // Propagate the separator up the path.
        let mut sep = entries[left_n].0.clone();
        let mut new_child = right_id;
        loop {
            match path.pop() {
                Some((ppid, ppage)) => {
                    let mut pbuf = ppage.to_vec();
                    let ic = internal_capacity(ps, self.key_len);
                    let pcnt = Internal::count(&pbuf);
                    // Insert slot: first separator >= sep.
                    let mut islot = 0usize;
                    while islot < pcnt && Internal::key(&pbuf, islot, self.key_len) < sep.as_slice()
                    {
                        islot += 1;
                    }
                    if pcnt < ic {
                        // Shift pairs right, write the new pair.
                        let pair = self.key_len + 8;
                        let start = crate::node::INTERNAL_HDR + islot * pair;
                        let end = crate::node::INTERNAL_HDR + pcnt * pair;
                        pbuf.copy_within(start..end, start + pair);
                        Internal::write_pair(&mut pbuf, islot, &sep, new_child);
                        Internal::set_count(&mut pbuf, pcnt + 1);
                        self.pool.write(ppid, &pbuf)?;
                        return self.persist_header();
                    }
                    // Internal split.
                    let mut keys: Vec<Vec<u8>> = (0..pcnt)
                        .map(|s| Internal::key(&pbuf, s, self.key_len).to_vec())
                        .collect();
                    let mut children: Vec<u64> = (0..pcnt)
                        .map(|s| Internal::child(&pbuf, s, self.key_len))
                        .collect();
                    keys.insert(islot, sep.clone());
                    children.insert(islot, new_child);
                    let child0 = Internal::child0(&pbuf);
                    let mid = keys.len() / 2;
                    let promoted = keys[mid].clone();

                    let mut left_buf = vec![0u8; ps];
                    Internal::init(&mut left_buf);
                    Internal::set_child0(&mut left_buf, child0);
                    for (s, k) in keys[..mid].iter().enumerate() {
                        Internal::write_pair(&mut left_buf, s, k, children[s]);
                    }
                    Internal::set_count(&mut left_buf, mid);

                    let right_internal = self.pool.allocate_page()?;
                    let mut right_buf = vec![0u8; ps];
                    Internal::init(&mut right_buf);
                    Internal::set_child0(&mut right_buf, children[mid]);
                    for (s, k) in keys[mid + 1..].iter().enumerate() {
                        Internal::write_pair(&mut right_buf, s, k, children[mid + 1 + s]);
                    }
                    Internal::set_count(&mut right_buf, keys.len() - mid - 1);

                    self.pool.write(ppid, &left_buf)?;
                    self.pool.write(right_internal, &right_buf)?;
                    sep = promoted;
                    new_child = right_internal;
                }
                None => {
                    // Root split: grow the tree by one level.
                    let new_root = self.pool.allocate_page()?;
                    let mut buf = vec![0u8; ps];
                    Internal::init(&mut buf);
                    Internal::set_child0(&mut buf, self.root);
                    Internal::write_pair(&mut buf, 0, &sep, new_child);
                    Internal::set_count(&mut buf, 1);
                    self.pool.write(new_root, &buf)?;
                    self.root = new_root;
                    self.height += 1;
                    return self.persist_header();
                }
            }
        }
    }

    /// Inserts `key`, or overwrites the value of the first existing entry
    /// equal to `key` in place. Returns `true` when a new entry was created,
    /// `false` when an existing one was overwritten.
    ///
    /// Plain [`BTree::insert`] allows duplicates, so WAL replay uses this
    /// instead: re-applying a logged insert that already reached the tree
    /// before a crash must not create a second entry.
    pub fn upsert(&mut self, key: &[u8], value: &[u8]) -> io::Result<bool> {
        assert_eq!(key.len(), self.key_len, "key size mismatch");
        assert_eq!(value.len(), self.val_len, "value size mismatch");
        let c = self.seek(key)?;
        if c.valid() && c.key() == key {
            let mut leaf = c.page.to_vec();
            Leaf::write_entry(&mut leaf, c.slot as usize, key, value);
            self.pool.write(c.page_id, &leaf)?;
            return Ok(false);
        }
        self.insert(key, value)?;
        Ok(true)
    }

    /// Exact-match lookup: the value of the first entry equal to `key`.
    pub fn get(&self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        let c = self.seek(key)?;
        if c.valid() && c.key() == key {
            Ok(Some(c.value().to_vec()))
        } else {
            Ok(None)
        }
    }

    /// Cursor positioned at the first entry with key `>= key` (invalid/end
    /// if all keys are smaller). On an empty tree, an invalid cursor.
    pub fn seek(&self, key: &[u8]) -> io::Result<Cursor> {
        assert_eq!(key.len(), self.key_len, "key size mismatch");
        if self.root == NO_PAGE {
            return Ok(Cursor::dead(self));
        }
        let (pid, page, _) = self.descend_to_leaf(key)?;
        let slot = Leaf::lower_bound(&page, key, self.key_len, self.val_len);
        let mut c = Cursor::on_leaf(self, pid, page);
        c.slot = slot as isize;
        c.normalize_forward()?;
        Ok(c)
    }

    /// Cursor at the first entry of the tree.
    pub fn first(&self) -> io::Result<Cursor> {
        if self.first_leaf == NO_PAGE {
            return Ok(Cursor::dead(self));
        }
        let page = self.pool.read(self.first_leaf)?;
        Ok(Cursor::on_leaf(self, self.first_leaf, page))
    }

    /// The entries whose key `keep` accepts, in key order, as an
    /// [`EntrySource`] that reads each leaf straight from disk without
    /// caching it ([`BufferPool::read_pages_uncached`]): a whole-tree pass
    /// must not evict the pages queries use. It starts at the first leaf
    /// this handle holds in memory and follows the right-sibling links.
    pub fn scan_uncached<F: FnMut(&[u8]) -> bool>(&self, keep: F) -> LeafScan<F> {
        LeafScan {
            pool: Arc::clone(&self.pool),
            key_len: self.key_len,
            val_len: self.val_len,
            page: vec![0u8; self.pool.page_size()],
            next: self.first_leaf,
            count: 0,
            slot: 0,
            keep,
        }
    }

    /// Cursor at the last entry of the tree.
    pub fn last(&self) -> io::Result<Cursor> {
        if self.last_leaf == NO_PAGE {
            return Ok(Cursor::dead(self));
        }
        let page = self.pool.read(self.last_leaf)?;
        let mut c = Cursor::on_leaf(self, self.last_leaf, page);
        c.slot = c.count as isize - 1;
        Ok(c)
    }
}

/// A bidirectional position in the leaf chain.
///
/// A cursor is *valid* when it rests on an entry; walking past either end
/// leaves it invalid, and further moves in that direction keep it invalid
/// (moves in the opposite direction re-enter the chain, so an exhausted
/// direction does not poison the other). Past either end the cursor waits
/// on the boundary: one move back returns to the last (first) entry however
/// many moves went past it.
///
/// The cursor caches its leaf's entry count, so validity is one comparison
/// and a step within the page ([`Self::advance`], [`Self::retreat`]) is an
/// inlined slot increment; only a step across a page boundary takes the
/// out-of-line path through the buffer pool. Whenever the cursor lands on a
/// leaf it touches every cache line of the page
/// ([`hd_storage::touch_lines`]), so the misses of the entries the walk is
/// about to read overlap instead of stalling the walk one line at a time.
#[derive(Clone)]
pub struct Cursor {
    pool: Arc<BufferPool>,
    key_len: usize,
    val_len: usize,
    page_id: u64,
    page: Arc<[u8]>,
    /// Entry count of `page` (0 for a dead cursor).
    count: usize,
    /// Slot within the page; -1 = before this page, count = after this page.
    slot: isize,
}

impl Cursor {
    fn dead(tree: &BTree) -> Self {
        Cursor {
            pool: Arc::clone(&tree.pool),
            key_len: tree.key_len,
            val_len: tree.val_len,
            page_id: NO_PAGE,
            page: Arc::from(vec![0u8; 0].into_boxed_slice()),
            count: 0,
            slot: -1,
        }
    }

    /// A cursor at slot 0 of leaf `page_id`.
    fn on_leaf(tree: &BTree, page_id: u64, page: Arc<[u8]>) -> Self {
        hd_storage::touch_lines(&page);
        Cursor {
            pool: Arc::clone(&tree.pool),
            key_len: tree.key_len,
            val_len: tree.val_len,
            page_id,
            count: Leaf::count(&page),
            page,
            slot: 0,
        }
    }

    /// Moves onto leaf `page_id` (slot left to the caller), caching its
    /// entry count and pulling its lines toward the cache.
    fn land(&mut self, page_id: u64, page: Arc<[u8]>) {
        hd_storage::touch_lines(&page);
        self.count = Leaf::count(&page);
        self.page_id = page_id;
        self.page = page;
    }

    #[inline]
    pub fn valid(&self) -> bool {
        self.slot >= 0 && (self.slot as usize) < self.count
    }

    /// Key at the cursor.
    ///
    /// # Panics
    /// Panics if the cursor is invalid.
    #[inline]
    pub fn key(&self) -> &[u8] {
        assert!(self.valid(), "cursor not on an entry");
        Leaf::key(&self.page, self.slot as usize, self.key_len, self.val_len)
    }

    /// Value at the cursor.
    ///
    /// # Panics
    /// Panics if the cursor is invalid.
    #[inline]
    pub fn value(&self) -> &[u8] {
        assert!(self.valid(), "cursor not on an entry");
        Leaf::value(&self.page, self.slot as usize, self.key_len, self.val_len)
    }

    /// If sitting past the end of a page, hop to the next page's first
    /// entry; past the last page, wait on its end (slot = count).
    fn normalize_forward(&mut self) -> io::Result<()> {
        if self.page_id == NO_PAGE {
            return Ok(());
        }
        while self.slot >= 0 && self.slot as usize >= self.count {
            let right = Leaf::right(&self.page);
            if right == NO_PAGE {
                self.slot = self.count as isize;
                return Ok(()); // stays invalid (end)
            }
            let page = self.pool.read(right)?;
            self.land(right, page);
            self.slot = 0;
        }
        Ok(())
    }

    /// Moves to the next entry; returns whether the cursor is now valid.
    #[inline]
    pub fn advance(&mut self) -> io::Result<bool> {
        let next = self.slot + 1;
        if (next as usize) < self.count {
            self.slot = next;
            return Ok(true);
        }
        self.advance_across()
    }

    /// The page-boundary half of [`Self::advance`].
    #[cold]
    fn advance_across(&mut self) -> io::Result<bool> {
        if self.page_id == NO_PAGE {
            return Ok(false);
        }
        self.slot += 1;
        self.normalize_forward()?;
        Ok(self.valid())
    }

    /// Moves to the previous entry; returns whether the cursor is now valid.
    #[inline]
    pub fn retreat(&mut self) -> io::Result<bool> {
        if self.slot > 0 {
            // slot <= count always holds, so slot - 1 is on the page.
            self.slot -= 1;
            return Ok(true);
        }
        self.retreat_across()
    }

    /// The page-boundary half of [`Self::retreat`].
    #[cold]
    fn retreat_across(&mut self) -> io::Result<bool> {
        if self.page_id == NO_PAGE {
            return Ok(false);
        }
        self.slot -= 1;
        while self.slot < 0 {
            let left = Leaf::left(&self.page);
            if left == NO_PAGE {
                self.slot = -1;
                return Ok(false); // stays invalid (before begin)
            }
            let page = self.pool.read(left)?;
            self.land(left, page);
            self.slot = self.count as isize - 1;
        }
        Ok(self.valid())
    }
}

/// The uncached forward pass of [`BTree::scan_uncached`]: one leaf page
/// buffer, refilled from disk as the pass crosses into the next leaf.
pub struct LeafScan<F> {
    pool: Arc<BufferPool>,
    key_len: usize,
    val_len: usize,
    page: Vec<u8>,
    /// The leaf after the buffered one (`NO_PAGE` past the last).
    next: u64,
    /// Entry count of the buffered leaf (0 before the first read).
    count: usize,
    /// Next slot of the buffered leaf to visit.
    slot: usize,
    keep: F,
}

impl<F: FnMut(&[u8]) -> bool> EntrySource for LeafScan<F> {
    fn next_entry(&mut self) -> io::Result<Option<(&[u8], &[u8])>> {
        let (kl, vl) = (self.key_len, self.val_len);
        let slot = loop {
            if self.slot < self.count {
                self.slot += 1;
                if (self.keep)(Leaf::key(&self.page, self.slot - 1, kl, vl)) {
                    break self.slot - 1;
                }
                continue;
            }
            if self.next == NO_PAGE {
                return Ok(None);
            }
            self.pool.read_pages_uncached(self.next, &mut self.page)?;
            self.next = Leaf::right(&self.page);
            self.count = Leaf::count(&self.page);
            self.slot = 0;
        };
        Ok(Some((
            Leaf::key(&self.page, slot, kl, vl),
            Leaf::value(&self.page, slot, kl, vl),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_storage::Pager;
    use std::path::PathBuf;

    fn fresh_pool(name: &str, page_size: usize, cache: usize) -> (Arc<BufferPool>, PathBuf) {
        let dir = std::env::temp_dir().join("hd_btree_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}_{}", std::process::id()));
        let pager = Pager::create_with_page_size(&path, page_size).unwrap();
        (Arc::new(BufferPool::new(pager, cache)), path)
    }

    fn key8(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    fn val4(i: u64) -> Vec<u8> {
        (i as u32).to_le_bytes().to_vec()
    }

    #[test]
    fn bulk_load_and_point_lookup() {
        let (pool, path) = fresh_pool("bulk", 256, 64);
        let mut t = BTree::create(pool, 8, 4).unwrap();
        t.bulk_load((0..1000u64).map(|i| (key8(i * 2), val4(i))), 1.0)
            .unwrap();
        assert_eq!(t.len(), 1000);
        assert!(t.height() >= 2);
        for i in (0..1000u64).step_by(97) {
            assert_eq!(t.get(&key8(i * 2)).unwrap(), Some(val4(i)));
            assert_eq!(t.get(&key8(i * 2 + 1)).unwrap(), None);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn upsert_overwrites_in_place() {
        let (pool, path) = fresh_pool("upsert", 256, 64);
        let mut t = BTree::create(pool, 8, 4).unwrap();
        t.bulk_load((0..300u64).map(|i| (key8(i * 2), val4(i))), 1.0)
            .unwrap();
        // Overwrite an existing key: count stays, value changes.
        assert!(!t.upsert(&key8(100), &val4(999)).unwrap());
        assert_eq!(t.len(), 300);
        assert_eq!(t.get(&key8(100)).unwrap(), Some(val4(999)));
        // Upsert a missing key: behaves as insert.
        assert!(t.upsert(&key8(101), &val4(7)).unwrap());
        assert_eq!(t.len(), 301);
        assert_eq!(t.get(&key8(101)).unwrap(), Some(val4(7)));
        // Idempotent: upserting the same pair again changes nothing.
        assert!(!t.upsert(&key8(101), &val4(7)).unwrap());
        assert_eq!(t.len(), 301);
        // Empty-tree upsert inserts.
        let (pool2, path2) = fresh_pool("upsert_empty", 256, 64);
        let mut t2 = BTree::create(pool2, 8, 4).unwrap();
        assert!(t2.upsert(&key8(1), &val4(1)).unwrap());
        assert_eq!(t2.len(), 1);
        std::fs::remove_file(path).ok();
        std::fs::remove_file(path2).ok();
    }

    #[test]
    fn full_forward_scan_visits_all_sorted() {
        let (pool, path) = fresh_pool("scan", 256, 64);
        let mut t = BTree::create(pool, 8, 4).unwrap();
        t.bulk_load((0..500u64).map(|i| (key8(i), val4(i))), 1.0)
            .unwrap();
        let mut c = t.first().unwrap();
        let mut seen = 0u64;
        while c.valid() {
            assert_eq!(c.key(), key8(seen).as_slice());
            assert_eq!(c.value(), val4(seen).as_slice());
            seen += 1;
            c.advance().unwrap();
        }
        assert_eq!(seen, 500);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn uncached_scan_filters_in_key_order_and_caches_nothing() {
        let (pool, path) = fresh_pool("scan_uncached", 256, 64);
        let mut t = BTree::create(Arc::clone(&pool), 8, 4).unwrap();
        t.bulk_load((0..500u64).map(|i| (key8(i * 2), val4(i))), 1.0)
            .unwrap();
        // Splits append leaves out of page order; the scan follows links.
        for i in 0..200u64 {
            t.insert(&key8(i * 10 + 1), &val4(1000 + i)).unwrap();
        }
        pool.clear_cache();
        let mut all = Vec::new();
        let mut c = t.first().unwrap();
        while c.valid() {
            all.push((c.key().to_vec(), c.value().to_vec()));
            c.advance().unwrap();
        }
        pool.clear_cache();
        let odd = |k: &[u8]| u64::from_be_bytes(k.try_into().unwrap()) % 2 == 1;
        let mut scan = t.scan_uncached(odd);
        let mut got = Vec::new();
        while let Some((k, v)) = scan.next_entry().unwrap() {
            got.push((k.to_vec(), v.to_vec()));
        }
        let want: Vec<_> = all.into_iter().filter(|(k, _)| odd(k)).collect();
        assert_eq!(got.len(), 200);
        assert_eq!(got, want);
        assert_eq!(pool.memory_bytes(), 0, "the scan must not cache pages");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn full_backward_scan() {
        let (pool, path) = fresh_pool("back", 256, 64);
        let mut t = BTree::create(pool, 8, 4).unwrap();
        t.bulk_load((0..500u64).map(|i| (key8(i), val4(i))), 1.0)
            .unwrap();
        let mut c = t.last().unwrap();
        let mut expect = 499i64;
        while c.valid() {
            assert_eq!(c.key(), key8(expect as u64).as_slice());
            expect -= 1;
            c.retreat().unwrap();
        }
        assert_eq!(expect, -1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn seek_positions_at_lower_bound() {
        let (pool, path) = fresh_pool("seek", 256, 64);
        let mut t = BTree::create(pool, 8, 4).unwrap();
        t.bulk_load((0..100u64).map(|i| (key8(i * 10), val4(i))), 1.0)
            .unwrap();
        let c = t.seek(&key8(55)).unwrap();
        assert_eq!(c.key(), key8(60).as_slice());
        let c = t.seek(&key8(60)).unwrap();
        assert_eq!(c.key(), key8(60).as_slice());
        let c = t.seek(&key8(10_000)).unwrap();
        assert!(!c.valid(), "seek past the end is invalid");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bidirectional_walk_from_seek() {
        let (pool, path) = fresh_pool("bidi", 256, 64);
        let mut t = BTree::create(pool, 8, 4).unwrap();
        t.bulk_load((0..100u64).map(|i| (key8(i), val4(i))), 1.0)
            .unwrap();
        let fwd = t.seek(&key8(50)).unwrap();
        let mut bwd = fwd.clone();
        bwd.retreat().unwrap();
        assert_eq!(fwd.key(), key8(50).as_slice());
        assert_eq!(bwd.key(), key8(49).as_slice());
        // Walk both directions 30 steps, crossing page boundaries.
        let mut fwd = fwd;
        for i in 1..=30u64 {
            assert!(fwd.advance().unwrap());
            assert_eq!(fwd.key(), key8(50 + i).as_slice());
            assert!(bwd.retreat().unwrap());
            assert_eq!(bwd.key(), key8(49 - i).as_slice());
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn seek_past_end_leaves_fwd_invalid_but_bwd_reaches_last() {
        // The RDB candidate walk seeds a fwd/bwd cursor pair from one seek;
        // a probe key greater than every stored key must leave the forward
        // cursor invalid (normalize_forward finds no right sibling) while a
        // clone retreats onto the last entry and keeps walking backwards.
        let (pool, path) = fresh_pool("pastend", 256, 64);
        let mut t = BTree::create(pool, 8, 4).unwrap();
        t.bulk_load((0..500u64).map(|i| (key8(i), val4(i))), 1.0)
            .unwrap();

        let mut fwd = t.seek(&key8(u64::MAX)).unwrap();
        assert!(!fwd.valid(), "no entry >= probe");
        let mut bwd = fwd.clone();
        assert!(bwd.retreat().unwrap(), "bwd must land on the last entry");
        assert_eq!(bwd.key(), key8(499).as_slice());
        assert_eq!(bwd.value(), val4(499).as_slice());

        // fwd stays exhausted while bwd crosses page boundaries backwards —
        // exactly the state the leaf walk sees at the right edge of the key
        // space.
        assert!(!fwd.advance().unwrap());
        for i in 1..=100u64 {
            assert!(bwd.retreat().unwrap());
            assert_eq!(bwd.key(), key8(499 - i).as_slice());
        }
        assert!(!fwd.valid());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn seek_past_end_single_entry_tree() {
        let (pool, path) = fresh_pool("pastend1", 256, 16);
        let mut t = BTree::create(pool, 8, 4).unwrap();
        t.insert(&key8(7), &val4(7)).unwrap();
        let fwd = t.seek(&key8(8)).unwrap();
        assert!(!fwd.valid());
        let mut bwd = fwd.clone();
        assert!(bwd.retreat().unwrap());
        assert_eq!(bwd.key(), key8(7).as_slice());
        assert!(!bwd.retreat().unwrap(), "nothing before the only entry");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn exhausted_direction_stays_invalid() {
        let (pool, path) = fresh_pool("exhaust", 256, 16);
        let mut t = BTree::create(pool, 8, 4).unwrap();
        t.bulk_load((0..3u64).map(|i| (key8(i), val4(i))), 1.0)
            .unwrap();
        let mut c = t.first().unwrap();
        assert!(!c.retreat().unwrap());
        assert!(!c.retreat().unwrap());
        // Walking forward again re-enters the chain.
        assert!(c.advance().unwrap());
        assert_eq!(c.key(), key8(0).as_slice());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn inserts_into_empty_tree() {
        let (pool, path) = fresh_pool("ins0", 256, 64);
        let mut t = BTree::create(pool, 8, 4).unwrap();
        t.insert(&key8(5), &val4(5)).unwrap();
        t.insert(&key8(1), &val4(1)).unwrap();
        t.insert(&key8(9), &val4(9)).unwrap();
        assert_eq!(t.len(), 3);
        let mut c = t.first().unwrap();
        let mut keys = Vec::new();
        while c.valid() {
            keys.push(u64::from_be_bytes(c.key().try_into().unwrap()));
            c.advance().unwrap();
        }
        assert_eq!(keys, vec![1, 5, 9]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn random_inserts_match_sorted_order() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let (pool, path) = fresh_pool("insrand", 256, 128);
        let mut t = BTree::create(pool, 8, 4).unwrap();
        let mut ids: Vec<u64> = (0..2000).collect();
        ids.shuffle(&mut rand::rngs::StdRng::seed_from_u64(3));
        for &i in &ids {
            t.insert(&key8(i), &val4(i)).unwrap();
        }
        assert_eq!(t.len(), 2000);
        let mut c = t.first().unwrap();
        let mut expect = 0u64;
        while c.valid() {
            assert_eq!(c.key(), key8(expect).as_slice());
            assert_eq!(c.value(), val4(expect).as_slice());
            expect += 1;
            c.advance().unwrap();
        }
        assert_eq!(expect, 2000);
        // Backward too (checks left links across splits).
        let mut c = t.last().unwrap();
        let mut expect = 1999i64;
        while c.valid() {
            assert_eq!(c.key(), key8(expect as u64).as_slice());
            expect -= 1;
            c.retreat().unwrap();
        }
        assert_eq!(expect, -1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn inserts_after_bulk_load() {
        let (pool, path) = fresh_pool("mix", 256, 128);
        let mut t = BTree::create(pool, 8, 4).unwrap();
        t.bulk_load((0..100u64).map(|i| (key8(i * 2), val4(i * 2))), 1.0)
            .unwrap();
        for i in 0..100u64 {
            t.insert(&key8(i * 2 + 1), &val4(i * 2 + 1)).unwrap();
        }
        assert_eq!(t.len(), 200);
        let mut c = t.first().unwrap();
        let mut expect = 0u64;
        while c.valid() {
            assert_eq!(c.key(), key8(expect).as_slice());
            expect += 1;
            c.advance().unwrap();
        }
        assert_eq!(expect, 200);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn duplicate_keys_cluster() {
        let (pool, path) = fresh_pool("dups", 256, 64);
        let mut t = BTree::create(pool, 8, 4).unwrap();
        for i in 0..50u64 {
            t.insert(&key8(7), &val4(i)).unwrap();
        }
        t.insert(&key8(3), &val4(0)).unwrap();
        t.insert(&key8(9), &val4(0)).unwrap();
        let mut c = t.seek(&key8(7)).unwrap();
        let mut dup_count = 0;
        while c.valid() && c.key() == key8(7).as_slice() {
            dup_count += 1;
            c.advance().unwrap();
        }
        assert_eq!(dup_count, 50);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn reopen_preserves_tree() {
        let (pool, path) = fresh_pool("reopen", 256, 64);
        {
            let mut t = BTree::create(pool, 8, 4).unwrap();
            t.bulk_load((0..300u64).map(|i| (key8(i), val4(i))), 1.0)
                .unwrap();
            t.pool().sync().unwrap();
        }
        let pager = Pager::open(&path, 256).unwrap();
        let pool = Arc::new(BufferPool::new(pager, 64));
        let t = BTree::open(pool).unwrap();
        assert_eq!(t.len(), 300);
        assert_eq!(t.get(&key8(123)).unwrap(), Some(val4(123)));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn io_accounting_point_lookup_is_height_reads() {
        let (pool, path) = fresh_pool("iocount", 256, 0);
        let mut t = BTree::create(Arc::clone(&pool), 8, 4).unwrap();
        t.bulk_load((0..5000u64).map(|i| (key8(i), val4(i))), 1.0)
            .unwrap();
        pool.reset_stats();
        t.get(&key8(2500)).unwrap();
        let s = pool.stats();
        assert_eq!(
            s.physical_reads,
            t.height() as u64,
            "uncached point lookup must read exactly one page per level"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bulk_load_stream_matches_vec_path_at_every_fill() {
        // A genuinely lending source: each entry is serialized into one
        // reusable scratch buffer, so the previous borrow is clobbered by
        // the next call — exactly the contract the merge reader provides.
        struct Scratch {
            next: u64,
            end: u64,
            buf: Vec<u8>,
        }
        impl EntrySource for Scratch {
            fn next_entry(&mut self) -> io::Result<Option<(&[u8], &[u8])>> {
                if self.next == self.end {
                    return Ok(None);
                }
                self.buf.clear();
                self.buf.extend_from_slice(&self.next.to_be_bytes());
                self.buf
                    .extend_from_slice(&(self.next as u32).to_le_bytes());
                self.next += 1;
                Ok(Some(self.buf.split_at(8)))
            }
        }
        for fill in [0.7, 1.0] {
            let tag = format!("stream_{}", (fill * 10.0) as u32);
            let (pool_v, path_v) = fresh_pool(&format!("{tag}_vec"), 256, 64);
            let (pool_s, path_s) = fresh_pool(&format!("{tag}_src"), 256, 64);
            let mut by_vec = BTree::create(Arc::clone(&pool_v), 8, 4).unwrap();
            let mut by_src = BTree::create(Arc::clone(&pool_s), 8, 4).unwrap();
            by_vec
                .bulk_load((0..1500u64).map(|i| (key8(i), val4(i))), fill)
                .unwrap();
            let mut src = Scratch {
                next: 0,
                end: 1500,
                buf: Vec::new(),
            };
            by_src.bulk_load_stream(&mut src, fill).unwrap();
            pool_v.sync().unwrap();
            pool_s.sync().unwrap();
            assert_eq!(
                std::fs::read(&path_v).unwrap(),
                std::fs::read(&path_s).unwrap(),
                "stream and vec bulk loads must write identical files (fill {fill})"
            );
            assert_eq!(by_src.len(), 1500);
            assert_eq!(by_src.get(&key8(777)).unwrap(), Some(val4(777)));
            std::fs::remove_file(path_v).ok();
            std::fs::remove_file(path_s).ok();
        }
    }

    #[test]
    fn partial_fill_factor_spreads_leaves() {
        let (pool_a, path_a) = fresh_pool("fill_a", 256, 64);
        let (pool_b, path_b) = fresh_pool("fill_b", 256, 64);
        let mut full = BTree::create(Arc::clone(&pool_a), 8, 4).unwrap();
        let mut half = BTree::create(Arc::clone(&pool_b), 8, 4).unwrap();
        full.bulk_load((0..1000u64).map(|i| (key8(i), val4(i))), 1.0)
            .unwrap();
        half.bulk_load((0..1000u64).map(|i| (key8(i), val4(i))), 0.5)
            .unwrap();
        assert!(pool_b.num_pages() > pool_a.num_pages());
        std::fs::remove_file(path_a).ok();
        std::fs::remove_file(path_b).ok();
    }
}
