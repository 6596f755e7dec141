package page

import (
	"bytes"
	"fmt"
	"sort"

	"immortaldb/internal/itime"
)

// DataPage is a slotted page of record versions. The slot array holds, per
// distinct key, the index of the *latest* version; older versions hang off
// the latest via the Prev chain (the VP field of the versioning tail). A
// current transaction therefore sees exactly the records a conventional
// slotted page would show it (Section 3.2).
//
// Current pages cover the time range [StartTS, +inf); historical pages cover
// [StartTS, EndTS). StartTS is the paper's "split time" header field and
// Hist its "history pointer".
type DataPage struct {
	ID  ID
	LSN uint64

	// Size is the page capacity in bytes. It is not marshalled; NewData and
	// Unmarshal set it. Zero falls back to DefaultSize.
	Size int

	// Current marks a page holding the current database state; false marks a
	// historical page produced by a time split.
	Current bool
	// NoTail marks a conventional (non-versioned, non-snapshot) table page
	// whose records carry no 14-byte versioning tail, preserving the paper's
	// claim of zero storage overhead for conventional tables.
	NoTail bool

	// Hist points to the newest historical page holding versions that once
	// lived in this page; 0 if none.
	Hist ID
	// StartTS is the start of this page's time range (the split time of the
	// most recent time split, or zero if never split).
	StartTS itime.Timestamp
	// EndTS is the exclusive end of a historical page's time range; current
	// pages use itime.Max.
	EndTS itime.Timestamp

	// LowKey and HighKey fence the page's key range: LowKey <= key < HighKey.
	// nil LowKey means -inf, nil HighKey means +inf.
	LowKey, HighKey []byte

	// Recs is the record heap; Slots[i] indexes the latest version of the
	// i-th key in sorted key order.
	Recs  []Version
	Slots []int16

	// StampLSN is the highest commit-record LSN among transactions whose
	// versions were lazily stamped in place on this page. Stamping is never
	// logged and does not move the page LSN, but a freshly stamped version
	// reaching disk before its commit record would survive a crash that must
	// roll the transaction back — so the buffer pool flushes the log through
	// max(LSN, StampLSN) before writing the page. Transient: not marshalled
	// (after a reboot every stamp on disk is covered by a durable commit
	// record, or the page write would not have happened).
	StampLSN uint64

	// cachedUsed memoizes Used(); -1 means unknown. Mutators adjust it
	// incrementally or invalidate it; Validate cross-checks it.
	cachedUsed int
}

// NewData returns an empty current data page of the given byte size covering
// all keys and all time.
func NewData(id ID, size int) *DataPage {
	return &DataPage{ID: id, Size: size, Current: true, EndTS: itime.Max, cachedUsed: -1}
}

// fixedDataHeaderLen is the marshalled size of the fixed data page header:
// id(8) flags(1) hist(8) lsn(8) startTS(12) endTS(12) nrecs(2) nslots(2).
const fixedDataHeaderLen = 8 + 1 + 8 + 8 + itime.EncodedLen + itime.EncodedLen + 2 + 2

// Used returns the exact marshalled size of the page, frame header included.
// The value is memoized and maintained incrementally by the mutators.
func (p *DataPage) Used() int {
	if p.cachedUsed >= 0 {
		return p.cachedUsed
	}
	n := PayloadOff + fixedDataHeaderLen
	n += 2 + len(p.LowKey) + 2 + len(p.HighKey)
	for i := range p.Recs {
		n += p.Recs[i].size(p.NoTail)
	}
	n += slotLen * len(p.Slots)
	p.cachedUsed = n
	return n
}

// invalidateUsed forgets the memoized size after a wholesale rewrite.
func (p *DataPage) invalidateUsed() { p.cachedUsed = -1 }

func (p *DataPage) adjustUsed(delta int) {
	if p.cachedUsed >= 0 {
		p.cachedUsed += delta
	}
}

// NumKeys returns the number of distinct keys (slots) on the page.
func (p *DataPage) NumKeys() int { return len(p.Slots) }

// NumVersions returns the total number of record versions on the page.
func (p *DataPage) NumVersions() int { return len(p.Recs) }

// FindSlot locates key in the slot array. It returns the slot index and true
// if found, or the insertion position and false if not.
func (p *DataPage) FindSlot(key []byte) (int, bool) {
	lo := sort.Search(len(p.Slots), func(i int) bool {
		return bytes.Compare(p.Recs[p.Slots[i]].Key, key) >= 0
	})
	if lo < len(p.Slots) && bytes.Equal(p.Recs[p.Slots[lo]].Key, key) {
		return lo, true
	}
	return lo, false
}

// Latest returns the latest version for slot s.
func (p *DataPage) Latest(s int) *Version { return &p.Recs[p.Slots[s]] }

// Chain returns the indices of slot s's versions, newest first.
func (p *DataPage) Chain(s int) []int16 {
	var out []int16
	for i := p.Slots[s]; i != NoPrev; i = p.Recs[i].Prev {
		out = append(out, i)
	}
	return out
}

// ChainLen returns the number of versions in slot s's chain.
func (p *DataPage) ChainLen(s int) int {
	n := 0
	for i := p.Slots[s]; i != NoPrev; i = p.Recs[i].Prev {
		n++
	}
	return n
}

// Insert adds a new non-timestamped version of key, written by transaction
// tid. If the key already exists the new version becomes the slot's latest
// and chains to the old one; otherwise a new slot is created. stub records a
// deletion. ErrPageFull is returned (and the page left unchanged) when the
// version does not fit.
func (p *DataPage) Insert(key, value []byte, stub bool, tid itime.TID) error {
	v := Version{Key: key, Value: value, Stub: stub, TID: tid, Prev: NoPrev}
	return p.insert(v)
}

// InsertStamped adds an already-timestamped version, used by splits,
// recovery and bulk loading.
func (p *DataPage) InsertStamped(key, value []byte, stub bool, ts itime.Timestamp) error {
	v := Version{Key: key, Value: value, Stub: stub, Stamped: true, TS: ts, Prev: NoPrev}
	return p.insert(v)
}

// InsertOrReplaceOwn is the versioned write path: if the key's latest
// version is an uncommitted version of the same transaction, it is
// overwritten in place (a transaction's intermediate states are invisible to
// everyone, so re-updating a record must not grow the chain — this mirrors
// SQL Server, where only one new version exists per record per transaction).
// Otherwise a new non-timestamped version is chained as in Insert.
func (p *DataPage) InsertOrReplaceOwn(key, value []byte, stub bool, tid itime.TID) (replaced bool, oldVal []byte, oldStub bool, err error) {
	slot, found := p.FindSlot(key)
	if found {
		v := p.Latest(slot)
		if !v.Stamped && v.TID == tid {
			delta := len(value) - len(v.Value)
			if delta > 0 && p.Used()+delta > maxUsable(p) {
				return false, nil, false, ErrPageFull
			}
			oldVal, oldStub = v.Value, v.Stub
			v.Value = append([]byte(nil), value...)
			v.Stub = stub
			p.adjustUsed(delta)
			return true, oldVal, oldStub, nil
		}
	}
	v := Version{Key: key, Value: value, Stub: stub, TID: tid, Prev: NoPrev}
	return false, nil, false, p.insertAt(v, slot, found)
}

// RestoreOwn undoes an in-place overwrite: the latest version of key, which
// must be an uncommitted version of tid, gets its previous value and stub
// flag back.
func (p *DataPage) RestoreOwn(key []byte, tid itime.TID, oldVal []byte, oldStub bool) error {
	slot, found := p.FindSlot(key)
	if !found {
		return fmt.Errorf("%w: restore-own of key %q", ErrNotFound, key)
	}
	v := p.Latest(slot)
	if v.Stamped || v.TID != tid {
		return fmt.Errorf("page: restore-own mismatch for key %q: stamped=%v tid=%d want %d",
			key, v.Stamped, v.TID, tid)
	}
	delta := len(oldVal) - len(v.Value)
	if delta > 0 && p.Used()+delta > maxUsable(p) {
		return ErrPageFull
	}
	v.Value = append([]byte(nil), oldVal...)
	v.Stub = oldStub
	p.adjustUsed(delta)
	return nil
}

// Replace overwrites the value of an existing key in place, returning the
// old value. It is the update path for NoTail (conventional, non-versioned)
// pages, where there is no version chain to grow. found is false when the
// key is absent.
func (p *DataPage) Replace(key, value []byte) (old []byte, found bool, err error) {
	slot, ok := p.FindSlot(key)
	if !ok {
		return nil, false, nil
	}
	v := p.Latest(slot)
	delta := len(value) - len(v.Value)
	if delta > 0 && p.Used()+delta > maxUsable(p) {
		return nil, true, ErrPageFull
	}
	old = v.Value
	v.Value = append([]byte(nil), value...)
	p.adjustUsed(delta)
	return old, true, nil
}

// RestoreValue puts a prior value back for key (undo of Replace).
func (p *DataPage) RestoreValue(key, old []byte) error {
	slot, ok := p.FindSlot(key)
	if !ok {
		return fmt.Errorf("%w: restore of key %q", ErrNotFound, key)
	}
	rec := &p.Recs[p.Slots[slot]]
	p.adjustUsed(len(old) - len(rec.Value))
	rec.Value = append([]byte(nil), old...)
	return nil
}

// Remove deletes a key outright (NoTail pages only — versioned tables use
// delete stubs). It returns the removed value.
func (p *DataPage) Remove(key []byte) ([]byte, error) {
	slot, ok := p.FindSlot(key)
	if !ok {
		return nil, fmt.Errorf("%w: remove of key %q", ErrNotFound, key)
	}
	idx := p.Slots[slot]
	val := p.Recs[idx].Value
	p.Slots = append(p.Slots[:slot], p.Slots[slot+1:]...)
	p.adjustUsed(-slotLen)
	p.removeRec(idx)
	return val, nil
}

// TimeSplitGain estimates how many bytes a time split at splitTS would free
// from the current page: the sizes of versions that would move out (end time
// at or before the split) plus stubs dropped from the current page. Spanning
// versions free nothing (they are kept redundantly). Callers use it to skip
// useless time splits without allocating a history page.
func (p *DataPage) TimeSplitGain(splitTS itime.Timestamp) int {
	succ := p.successors()
	gain := 0
	for i := range p.Recs {
		v := &p.Recs[i]
		if !v.Stamped {
			continue
		}
		end := p.EndOf(int16(i), succ)
		leaves := !end.After(splitTS) || (v.Stub && v.TS.Less(splitTS))
		if leaves {
			gain += v.size(p.NoTail)
		}
	}
	return gain
}

func (p *DataPage) insert(v Version) error {
	slot, found := p.FindSlot(v.Key)
	return p.insertAt(v, slot, found)
}

// insertAt is insert with v.Key's slot already found: the slot holding it
// (found) or the slot it would take.
func (p *DataPage) insertAt(v Version, slot int, found bool) error {
	if p.NoTail {
		// Conventional records carry no timestamp; treat them as stamped at
		// time zero so visibility checks (which skip unstamped versions)
		// always see them.
		v.Stamped = true
		v.TID = 0
		v.TS = itime.Timestamp{}
		v.Prev = NoPrev
	}
	need := v.size(p.NoTail)
	if !found {
		need += slotLen
	}
	if p.Used()+need > maxUsable(p) {
		if p.Used() == minUsed(p) {
			return fmt.Errorf("%w: %d bytes", ErrTooLarge, need)
		}
		return ErrPageFull
	}
	idx := int16(len(p.Recs))
	if found {
		v.Prev = p.Slots[slot]
		p.Recs = append(p.Recs, v)
		p.Slots[slot] = idx
	} else {
		p.Recs = append(p.Recs, v)
		p.Slots = append(p.Slots, 0)
		copy(p.Slots[slot+1:], p.Slots[slot:])
		p.Slots[slot] = idx
	}
	p.adjustUsed(need)
	return nil
}

func maxUsable(p *DataPage) int {
	if p.Size == 0 {
		return DefaultSize
	}
	return p.Size
}

func minUsed(p *DataPage) int {
	n := PayloadOff + fixedDataHeaderLen
	n += 2 + len(p.LowKey) + 2 + len(p.HighKey)
	return n
}

// UndoInsert removes the newest version of key, which must be non-timestamped
// and belong to transaction tid; it restores the slot to the prior version
// (or removes the slot if none). It is the logical undo of Insert, used by
// transaction rollback and ARIES undo.
func (p *DataPage) UndoInsert(key []byte, tid itime.TID) error {
	slot, found := p.FindSlot(key)
	if !found {
		return fmt.Errorf("%w: undo of key %q", ErrNotFound, key)
	}
	idx := p.Slots[slot]
	v := &p.Recs[idx]
	if v.Stamped || v.TID != tid {
		return fmt.Errorf("page: undo mismatch for key %q: stamped=%v tid=%d want %d",
			key, v.Stamped, v.TID, tid)
	}
	if v.Prev == NoPrev {
		p.Slots = append(p.Slots[:slot], p.Slots[slot+1:]...)
		p.adjustUsed(-slotLen)
	} else {
		p.Slots[slot] = v.Prev
	}
	p.removeRec(idx)
	return nil
}

// removeRec deletes record index idx from the heap, fixing every slot and
// Prev reference greater than idx. Nothing may still reference idx itself.
func (p *DataPage) removeRec(idx int16) {
	p.adjustUsed(-p.Recs[idx].size(p.NoTail))
	p.Recs = append(p.Recs[:idx], p.Recs[idx+1:]...)
	for i := range p.Recs {
		if p.Recs[i].Prev > idx {
			p.Recs[i].Prev--
		}
	}
	for i := range p.Slots {
		if p.Slots[i] > idx {
			p.Slots[i]--
		}
	}
}

// Resolver maps a transaction ID to its commit timestamp. ok is false while
// the transaction is still active (or was aborted and is being rolled back),
// in which case the version keeps its TID.
type Resolver func(tid itime.TID) (ts itime.Timestamp, ok bool)

// StampAll lazily timestamps every non-timestamped version whose transaction
// has committed, per Section 2.2 stage IV. It returns, per transaction, how
// many versions were stamped so the caller can decrement VTT reference
// counts. The page is dirtied by the caller if the returned map is non-empty.
func (p *DataPage) StampAll(resolve Resolver) map[itime.TID]int {
	var stamped map[itime.TID]int
	for i := range p.Recs {
		v := &p.Recs[i]
		if v.Stamped {
			continue
		}
		ts, ok := resolve(v.TID)
		if !ok {
			continue
		}
		tid := v.TID
		v.Stamped = true
		v.TS = ts
		v.TID = 0
		if stamped == nil {
			stamped = make(map[itime.TID]int)
		}
		stamped[tid]++
	}
	return stamped
}

// VersionAsOf returns the version of slot s visible at time ts: the version
// with the largest start time <= ts. Non-timestamped versions are treated as
// starting after every stamped time (their transactions have not committed
// as of any queryable time); callers must stamp committed versions first.
// ok is false when no version of the key existed at ts. The returned version
// may be a delete stub, meaning the record was deleted as of ts.
func (p *DataPage) VersionAsOf(s int, ts itime.Timestamp) (*Version, bool) {
	for i := p.Slots[s]; i != NoPrev; i = p.Recs[i].Prev {
		v := &p.Recs[i]
		if !v.Stamped {
			continue
		}
		if v.TS.Compare(ts) <= 0 {
			return v, true
		}
	}
	return nil, false
}

// OldestStart returns the smallest stamped start time on the page, or zero
// if the page has no stamped versions.
func (p *DataPage) OldestStart() itime.Timestamp {
	var oldest itime.Timestamp
	first := true
	for i := range p.Recs {
		if !p.Recs[i].Stamped {
			continue
		}
		if first || p.Recs[i].TS.Less(oldest) {
			oldest = p.Recs[i].TS
			first = false
		}
	}
	if first {
		return itime.Timestamp{}
	}
	return oldest
}

// HasUnstamped reports whether any version still carries a TID.
func (p *DataPage) HasUnstamped() bool {
	for i := range p.Recs {
		if !p.Recs[i].Stamped {
			return true
		}
	}
	return false
}

// successors returns, for each record index, the index of the *next* (newer)
// version of the same key, or NoPrev for chain heads. End times are implicit:
// a version's end time is its successor's start time (Section 1.2).
func (p *DataPage) successors() []int16 {
	succ := make([]int16, len(p.Recs))
	for i := range succ {
		succ[i] = NoPrev
	}
	for i := range p.Recs {
		if prev := p.Recs[i].Prev; prev != NoPrev {
			succ[prev] = int16(i)
		}
	}
	return succ
}

// EndOf returns the end time of record index i: the start time of its
// successor, or itime.Max if it is the latest version of its key. succ must
// come from successors(). Unstamped successors yield itime.Max because their
// commit time is in the future of every stamped time.
func (p *DataPage) EndOf(i int16, succ []int16) itime.Timestamp {
	s := succ[i]
	if s == NoPrev {
		return itime.Max
	}
	if !p.Recs[s].Stamped {
		return itime.Max
	}
	return p.Recs[s].TS
}

// GCOlderThan removes versions that ended before cutoff, keeping for each
// key at least the version visible at cutoff. It implements version garbage
// collection for snapshot-only (non-immortal) tables, where versions older
// than the oldest active snapshot are reclaimed (Section 3, "Snapshots").
// Delete stubs whose chains become singleton stubs older than cutoff are
// dropped entirely. It returns the number of versions removed.
func (p *DataPage) GCOlderThan(cutoff itime.Timestamp) int {
	removed := 0
	for s := 0; s < len(p.Slots); s++ {
		// Find the newest version with start <= cutoff; everything strictly
		// older than it is invisible to every active or future snapshot.
		keepTail := NoPrev
		for i := p.Slots[s]; i != NoPrev; i = p.Recs[i].Prev {
			v := &p.Recs[i]
			if v.Stamped && v.TS.Compare(cutoff) <= 0 {
				keepTail = i
				break
			}
		}
		if keepTail == NoPrev {
			continue
		}
		// Truncate the chain below keepTail.
		for i := p.Recs[keepTail].Prev; i != NoPrev; {
			next := p.Recs[i].Prev
			p.Recs[keepTail].Prev = next // keep links valid during removal
			p.removeRec(i)
			if i < keepTail {
				keepTail--
			}
			if next > i {
				next--
			}
			i = next
			p.Recs[keepTail].Prev = i
			removed++
		}
		p.Recs[keepTail].Prev = NoPrev
		// A slot whose only remaining version is a stamped stub at or before
		// cutoff can disappear: the record is deleted and no snapshot that
		// could still see the pre-delete value remains.
		head := p.Slots[s]
		if head == keepTail {
			v := &p.Recs[head]
			if v.Stub && v.Stamped && v.TS.Compare(cutoff) <= 0 {
				p.Slots = append(p.Slots[:s], p.Slots[s+1:]...)
				p.adjustUsed(-slotLen)
				p.removeRec(head)
				removed++
				s--
			}
		}
	}
	return removed
}

// InKeyRange reports whether key falls in the page's fence interval.
func (p *DataPage) InKeyRange(key []byte) bool {
	if p.LowKey != nil && bytes.Compare(key, p.LowKey) < 0 {
		return false
	}
	if p.HighKey != nil && bytes.Compare(key, p.HighKey) >= 0 {
		return false
	}
	return true
}

// Validate checks structural invariants: sorted unique slot keys, acyclic
// chains, in-range Prev pointers, every record reachable from exactly one
// slot chain, and newest-to-oldest stamped chains in decreasing time order.
func (p *DataPage) Validate() error {
	for i := 1; i < len(p.Slots); i++ {
		if bytes.Compare(p.Recs[p.Slots[i-1]].Key, p.Recs[p.Slots[i]].Key) >= 0 {
			return fmt.Errorf("page %d: slots not strictly sorted at %d", p.ID, i)
		}
	}
	reached := make([]int, len(p.Recs))
	for s := range p.Slots {
		key := p.Recs[p.Slots[s]].Key
		var last *Version
		steps := 0
		for i := p.Slots[s]; i != NoPrev; i = p.Recs[i].Prev {
			if int(i) >= len(p.Recs) || i < 0 {
				return fmt.Errorf("page %d: chain index %d out of range", p.ID, i)
			}
			if steps++; steps > len(p.Recs) {
				return fmt.Errorf("page %d: version chain cycle at slot %d", p.ID, s)
			}
			v := &p.Recs[i]
			reached[i]++
			if !bytes.Equal(v.Key, key) {
				return fmt.Errorf("page %d: chain of %q contains key %q", p.ID, key, v.Key)
			}
			// Chains run newest to oldest. Adjacent versions may carry equal
			// timestamps when one transaction updated the same record more
			// than once; only the newest of the equal group is ever visible.
			if last != nil && last.Stamped && v.Stamped && v.TS.After(last.TS) {
				return fmt.Errorf("page %d: chain of %q not in decreasing time order", p.ID, key)
			}
			last = v
		}
	}
	for i, n := range reached {
		if n != 1 {
			return fmt.Errorf("page %d: record %d reached %d times", p.ID, i, n)
		}
	}
	if p.cachedUsed >= 0 {
		cached := p.cachedUsed
		p.cachedUsed = -1
		if fresh := p.Used(); fresh != cached {
			return fmt.Errorf("page %d: cached used %d != recomputed %d", p.ID, cached, fresh)
		}
	}
	return nil
}
