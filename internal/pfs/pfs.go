// Package pfs is an in-memory parallel file system in the spirit of the
// paper's motivating context (§1: range locks were conceived so multiple
// writers could update different parts of one file; §2: pNOVA applies
// them to per-file I/O on NVM file systems; §8 names parallel file
// systems as the natural next application).
//
// Every file's data plane is mediated by a byte-range lock — pluggable,
// so the paper's list-based lock can be compared against the tree-based
// or segment-based ones on identical file workloads:
//
//	ReadAt      shared lock on [off, off+len)
//	WriteAt     exclusive lock on [off, off+len)
//	Append      atomic reservation + exclusive lock on the reserved tail
//	Truncate    exclusive lock on [newSize, MaxEnd)
//
// File content is stored in 4 KiB blocks inside a sharded block table, so
// writers to disjoint ranges touch disjoint blocks and really do proceed
// in parallel once the range lock admits them. The namespace (directory
// of files) is protected separately by a reader-writer semaphore — names
// are not ranges.
package pfs

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/lockapi"
	"repro/internal/locks"
	"repro/internal/rwsem"
)

// BlockSize is the content block granularity.
const BlockSize = 4096

// MaxName bounds a file name's length in bytes. Names are journaled
// into WAL records and checkpoints with a u16 length prefix, so the
// encoding's hard ceiling is 64 KiB - 1; the API cap is far tighter so
// a name can never come close to it — an over-long name silently
// truncated in the log would desynchronize the decoder and cost every
// record behind it on recovery.
const MaxName = 4096

// Errors returned by the file system.
var (
	ErrNotExist    = errors.New("pfs: file does not exist")
	ErrExist       = errors.New("pfs: file already exists")
	ErrClosed      = errors.New("pfs: file system closed")
	ErrNameTooLong = errors.New("pfs: file name exceeds MaxName")
)

// LockFactory builds the byte-range lock protecting one file's data.
type LockFactory func() lockapi.Locker

// DefaultLockFactory uses the paper's reader-writer list-based lock.
func DefaultLockFactory() lockapi.Locker { return lockapi.NewListRW(nil) }

// DomainLockFactory builds a file's byte-range lock with its per-operation
// state (reclamation slots, node pools) in an explicit domain, so callers
// can place different files' locks in different domains. Variants without
// domain state ignore the argument.
type DomainLockFactory func(dom *core.Domain) lockapi.Locker

// DefaultDomainLockFactory is the reader-writer list-based lock in dom.
func DefaultDomainLockFactory(dom *core.Domain) lockapi.Locker {
	return lockapi.NewListRW(dom)
}

// NewInDomain creates a file system whose files lease all per-operation
// lock state from dom (nil selects the process-wide default domain; nil
// mk selects DefaultDomainLockFactory). Two file systems built over
// distinct domains share no lock state at all — the building block of
// Sharded.
func NewInDomain(dom *core.Domain, mk DomainLockFactory) *FS {
	if mk == nil {
		mk = DefaultDomainLockFactory
	}
	if dom == nil {
		dom = core.DefaultDomain()
	}
	return New(func() lockapi.Locker { return mk(dom) })
}

// FS is an in-memory file system.
type FS struct {
	ns     rwsem.RWSem // namespace lock
	files  map[string]*File
	mkLock LockFactory
	opSrc  lockapi.OpLocker // probe lock Ops are leased from; nil if unsupported
	opDom  *core.Domain     // the probe lock's domain
	closed bool

	// jhook, when set (RecoverSharded wires it to the shard's WAL),
	// journals every mutation. It is invoked while the mutation's
	// range lock (or, for Create, the namespace lock) is still held,
	// so the log order of conflicting operations equals their apply
	// order — released-lock journaling could log an overwritten write
	// after its overwriter and replay the loser on recovery. Set
	// before the file system serves writes; never changed while it
	// does (a replica swaps it only across a promotion barrier that
	// orders the store's first writes after the swap).
	jhook func(*Record)
}

// SetJournalHook installs (nil: removes) the journal hook. A replica
// removes the recovery-wired hooks while it applies the leader's
// stream — streamed records are journaled verbatim via AppendPrepared,
// not re-journaled with fresh LSNs — and rewires them on promotion.
// Callers must not change the hook while the store serves writes; the
// replica's promotion path publishes the swap through the server's
// leader flag before any write is accepted.
func (fs *FS) SetJournalHook(h func(*Record)) { fs.jhook = h }

// New creates an empty file system whose files use locks from mk (nil
// selects DefaultLockFactory).
func New(mk LockFactory) *FS {
	if mk == nil {
		mk = DefaultLockFactory
	}
	fs := &FS{files: make(map[string]*File), mkLock: mk}
	// Probe whether the variant supports leased operation contexts. Ops
	// are leased from this probe lock's domain; each file checks at
	// creation time that its own lock shares that domain (stock factories
	// do: nil-domain list locks share the process default domain) and
	// falls back to the plain per-call path otherwise.
	if ol, ok := mk().(lockapi.OpLocker); ok {
		fs.opSrc = ol
		fs.opDom = lockapi.OpDomain(ol)
	}
	return fs
}

// Op is a leased per-operation lock context threaded through the *Op
// file methods: callers issuing many file operations per logical unit of
// work (a server request batch, a tight benchmark loop) lease one Op and
// pay the reclamation-slot lease once instead of per call. The zero Op
// is valid and selects the plain per-call path, as does any Op on a file
// whose lock variant has no Op surface — so callers can thread an Op
// unconditionally.
type Op struct {
	ol  lockapi.OpLocker
	op  lockapi.Op
	dom *core.Domain // the domain op was leased from; guards cross-domain use
}

// BeginOp leases an operation context shared by every file of this FS
// whose lock supports it. The returned Op serves one goroutine at a time
// and must be returned with End.
func (fs *FS) BeginOp() Op {
	if fs.opSrc == nil {
		return Op{}
	}
	return Op{ol: fs.opSrc, op: fs.opSrc.BeginOp(), dom: fs.opDom}
}

// LockDomain returns the domain this file system's range locks lease their
// per-operation state from, nil when the lock variant has none.
func (fs *FS) LockDomain() *core.Domain { return fs.opDom }

// End returns the context to its domain. The zero Op's End is a no-op.
func (op Op) End() {
	if op.ol != nil {
		op.ol.EndOp(op.op)
	}
}

// Create adds an empty file, failing if the name exists or exceeds
// MaxName (names are journaled with a bounded length prefix, so the
// namespace is where over-long ones must be stopped).
func (fs *FS) Create(name string) (*File, error) {
	if len(name) > MaxName {
		return nil, ErrNameTooLong
	}
	fs.ns.Lock()
	defer fs.ns.Unlock()
	if fs.closed {
		return nil, ErrClosed
	}
	if _, ok := fs.files[name]; ok {
		return nil, ErrExist
	}
	lk := fs.mkLock()
	f := newFile(fs, name, lk)
	// The Op fast path is valid only when this file's lock leases from
	// the same domain as the FS probe lock; otherwise AcquireOp would
	// panic on the foreign context, so the file opts out up front.
	if fs.opSrc != nil && lockapi.SameOpDomain(fs.opSrc, lk) {
		f.opLk = lk.(lockapi.OpLocker)
		f.opDom = fs.opDom
	}
	fs.files[name] = f
	if fs.jhook != nil {
		// Under the namespace lock: an empty file's only durable trace
		// is this record, and the lock orders it against a re-create.
		fs.jhook(&Record{Kind: RecCreate, Name: name})
	}
	return f, nil
}

// Open returns an existing file.
func (fs *FS) Open(name string) (*File, error) {
	fs.ns.RLock()
	defer fs.ns.RUnlock()
	if fs.closed {
		return nil, ErrClosed
	}
	f, ok := fs.files[name]
	if !ok {
		return nil, ErrNotExist
	}
	return f, nil
}

// Stat returns metadata for an existing file by name.
func (fs *FS) Stat(name string) (FileInfo, error) {
	f, err := fs.Open(name)
	if err != nil {
		return FileInfo{}, err
	}
	return f.Stat(), nil
}

// Remove deletes a file from the namespace. Ongoing operations on open
// handles complete against the orphaned file.
func (fs *FS) Remove(name string) error {
	fs.ns.Lock()
	defer fs.ns.Unlock()
	if fs.closed {
		return ErrClosed
	}
	if _, ok := fs.files[name]; !ok {
		return ErrNotExist
	}
	delete(fs.files, name)
	return nil
}

// List returns the current file names (unordered).
func (fs *FS) List() []string {
	fs.ns.RLock()
	defer fs.ns.RUnlock()
	out := make([]string, 0, len(fs.files))
	for name := range fs.files {
		out = append(out, name)
	}
	return out
}

// Close marks the file system closed; subsequent namespace operations fail.
func (fs *FS) Close() {
	fs.ns.Lock()
	fs.closed = true
	fs.ns.Unlock()
}

// blockShards must be a power of two.
const blockShards = 64

type blockShard struct {
	_      [8]uint64
	mu     locks.SpinLock
	blocks map[uint64][]byte // block index -> BlockSize bytes
}

// File is one file: a sparse block store plus its byte-range lock.
type File struct {
	name   string
	fs     *FS // owning file system; its journal hook logs this file's mutations
	lk     lockapi.Locker
	opLk   lockapi.OpLocker // non-nil iff lk accepts leased Ops
	opDom  *core.Domain     // the domain opLk leases from; Ops from others fall back
	moved  atomic.Pointer[File]
	size   atomic.Uint64
	shards [blockShards]blockShard
}

func newFile(fs *FS, name string, lk lockapi.Locker) *File {
	f := &File{name: name, fs: fs, lk: lk}
	for i := range f.shards {
		f.shards[i].blocks = make(map[uint64][]byte)
	}
	return f
}

// journal logs one applied mutation through the owning FS's hook. The
// caller must still hold the range that serialized the mutation, so
// conflicting operations append in apply order; after a migration the
// live file belongs to the destination FS and journals to its shard's
// log automatically. Append errors are sticky in the WAL and surface
// at commit time, which is what gates acknowledgements.
func (f *File) journal(rec *Record) {
	if h := f.fs.jhook; h != nil {
		rec.Name = f.name
		h(rec)
	}
}

// Name returns the file's name at creation time.
func (f *File) Name() string { return f.name }

// current follows migration forwarding to the file's live incarnation:
// after Sharded.Migrate moves a file to another shard, the orphaned
// original points at the copy, so stale handles keep observing (and,
// through the forwarding loop in each operation, mutating) live state.
func (f *File) current() *File {
	for {
		nf := f.moved.Load()
		if nf == nil {
			return f
		}
		f = nf
	}
}

// Size returns the current file size (highest written offset).
func (f *File) Size() uint64 { return f.current().size.Load() }

func (f *File) shard(block uint64) *blockShard {
	return &f.shards[block&(blockShards-1)]
}

// block returns the storage for one block, allocating it if create is set.
func (f *File) block(idx uint64, create bool) []byte {
	s := f.shard(idx)
	s.mu.Lock()
	b := s.blocks[idx]
	if b == nil && create {
		b = make([]byte, BlockSize)
		s.blocks[idx] = b
	}
	s.mu.Unlock()
	return b
}

// dropBlocksFrom releases whole blocks at or beyond byte offset off.
func (f *File) dropBlocksFrom(off uint64) {
	first := (off + BlockSize - 1) / BlockSize
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.Lock()
		for idx := range s.blocks {
			if idx >= first {
				delete(s.blocks, idx)
			}
		}
		s.mu.Unlock()
	}
}

// growSize raises the size watermark to at least n.
func (f *File) growSize(n uint64) {
	for {
		cur := f.size.Load()
		if cur >= n || f.size.CompareAndSwap(cur, n) {
			return
		}
	}
}

// rangeRel is a held range acquired through lockRange; release with
// release(). It carries either a plain release closure or an Op-path
// guard, so the Op-threaded file methods avoid per-call closures when the
// lock variant supports leased contexts.
type rangeRel struct {
	rel func()
	ol  lockapi.OpLocker
	op  lockapi.Op
	g   lockapi.Guard
}

func (r rangeRel) release() {
	if r.rel != nil {
		r.rel()
		return
	}
	r.ol.ReleaseOp(r.op, r.g)
}

// lockRange acquires [start, end) on the file's lock, through op's leased
// context when the op and the lock lease from the same domain. The
// domain comparison is what makes dynamic placement safe: a caller can
// hold a handle whose file has migrated to another shard and thread an
// Op leased for either shard — a mismatched pair silently takes the
// plain per-call path instead of panicking on a foreign context.
func (f *File) lockRange(op Op, start, end uint64, write bool) rangeRel {
	if op.ol != nil && f.opLk != nil && op.dom == f.opDom {
		return rangeRel{ol: f.opLk, op: op.op, g: f.opLk.AcquireOp(op.op, start, end, write)}
	}
	return rangeRel{rel: f.lk.Acquire(start, end, write)}
}

// lockResolved is lockRange following migration forwarding: a file can
// move to another shard while the caller waits for the range, in which
// case the acquisition lands on a frozen orphan — Migrate sets the
// forwarding pointer before it releases its full-range freeze, so the
// check under the held lock is race-free. The held range is then
// released and re-acquired on the moved file (lockRange's domain check
// routes the op: foreign to the new shard it falls back to the plain
// path, matching again after a ping-pong it rides the fast path).
// Returns the live file and the held range.
func (f *File) lockResolved(op Op, start, end uint64, write bool) (*File, rangeRel) {
	for {
		r := f.lockRange(op, start, end, write)
		nf := f.moved.Load()
		if nf == nil {
			return f, r
		}
		r.release()
		f = nf
	}
}

// WriteAt writes p at offset off under an exclusive range lock, growing
// the file as needed. It never fails for valid input; the returned count
// is always len(p).
func (f *File) WriteAt(p []byte, off uint64) (int, error) {
	return f.WriteAtOp(Op{}, p, off)
}

// WriteAtOp is WriteAt threading a leased operation context.
func (f *File) WriteAtOp(op Op, p []byte, off uint64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	end := off + uint64(len(p))
	f, r := f.lockResolved(op, off, end, true)
	defer r.release()
	f.writeLocked(p, off)
	f.growSize(end)
	f.journal(&Record{Kind: RecWrite, Off: off, Data: p})
	return len(p), nil
}

func (f *File) writeLocked(p []byte, off uint64) {
	for len(p) > 0 {
		idx := off / BlockSize
		bo := off % BlockSize
		n := f.writeBlock(idx, bo, p)
		p = p[n:]
		off += uint64(n)
	}
}

// writeBlock copies what fits of p into block idx at offset bo under
// the block-shard spinlock. Overlap with other writers is excluded by
// the range lock; the spinlock is for whole-block readers that hold no
// range — checkpoint snapshots copy every block's bytes under it, so a
// snapshot taken while writers run sees each block torn only at record
// boundaries the WAL replay repairs, never mid-byte.
func (f *File) writeBlock(idx, bo uint64, p []byte) int {
	s := f.shard(idx)
	s.mu.Lock()
	b := s.blocks[idx]
	if b == nil {
		b = make([]byte, BlockSize)
		s.blocks[idx] = b
	}
	n := copy(b[bo:], p)
	s.mu.Unlock()
	return n
}

// ReadAt reads into p from offset off under a shared range lock. Reads
// beyond the current size return io.EOF with a short count; holes read as
// zero bytes.
func (f *File) ReadAt(p []byte, off uint64) (int, error) {
	return f.ReadAtOp(Op{}, p, off)
}

// ReadAtOp is ReadAt threading a leased operation context.
func (f *File) ReadAtOp(op Op, p []byte, off uint64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	end := off + uint64(len(p))
	f, r := f.lockResolved(op, off, end, false)
	defer r.release()
	size := f.size.Load()
	var eof error
	if end > size {
		if off >= size {
			return 0, io.EOF
		}
		p = p[:size-off]
		eof = io.EOF
	}
	read := 0
	for len(p) > 0 {
		idx := off / BlockSize
		bo := off % BlockSize
		var n int
		if b := f.block(idx, false); b != nil {
			n = copy(p, b[bo:])
		} else {
			// Hole: zero fill.
			n = len(p)
			if rem := BlockSize - int(bo); n > rem {
				n = rem
			}
			for i := 0; i < n; i++ {
				p[i] = 0
			}
		}
		p = p[n:]
		off += uint64(n)
		read += n
	}
	return read, eof
}

// Append atomically reserves the tail of the file for p and writes it
// under an exclusive lock on just the reserved range: concurrent appends
// reserve disjoint ranges and proceed in parallel — exactly the
// shared-file pattern pNOVA optimizes. Returns the offset written.
func (f *File) Append(p []byte) (uint64, error) {
	return f.AppendOp(Op{}, p)
}

// AppendOp is Append threading a leased operation context.
func (f *File) AppendOp(op Op, p []byte) (uint64, error) {
	n := uint64(len(p))
	if n == 0 {
		return f.current().size.Load(), nil
	}
	for {
		// Reserve: the watermark moves first, so each append owns a disjoint
		// range; readers past the old size see zeros until the write lands,
		// as with any sparse file.
		off := f.size.Add(n) - n
		r := f.lockRange(op, off, off+n, true)
		nf := f.moved.Load()
		if nf == nil {
			f.writeLocked(p, off)
			// The record carries the offset the reservation landed at,
			// so replay is a deterministic WriteAt however appends raced.
			f.journal(&Record{Kind: RecAppend, Off: off, Data: p})
			r.release()
			return off, nil
		}
		// The file moved while we waited: the reservation belongs to the
		// orphaned copy, so restart on the moved file — reservation and
		// write must land on the same watermark, or two appends could be
		// granted overlapping ranges. If the migration copy caught the
		// abandoned reservation in the watermark, the moved file keeps a
		// zero-filled gap there, like any sparse hole; nothing is lost or
		// written twice.
		r.release()
		f = nf
	}
}

// Truncate shrinks or grows the file to size n, holding the exclusive
// range [n, MaxEnd) so it cannot race with writes past the new end.
func (f *File) Truncate(n uint64) {
	f.TruncateOp(Op{}, n)
}

// TruncateOp is Truncate threading a leased operation context.
func (f *File) TruncateOp(op Op, n uint64) {
	f, r := f.lockResolved(op, n, ^uint64(0), true)
	defer r.release()
	defer f.journal(&Record{Kind: RecTruncate, Size: n})
	cur := f.size.Load()
	if n < cur {
		f.dropBlocksFrom(n)
		// Clear the partial block tail so regrowth reads zeros; under
		// the spinlock, like all content writes (see writeBlock).
		if bo := n % BlockSize; bo != 0 {
			s := f.shard(n / BlockSize)
			s.mu.Lock()
			if b := s.blocks[n/BlockSize]; b != nil {
				for i := bo; i < BlockSize; i++ {
					b[i] = 0
				}
			}
			s.mu.Unlock()
		}
		f.size.Store(n)
		return
	}
	f.growSize(n)
}

// FileInfo is a point-in-time snapshot of file metadata.
type FileInfo struct {
	Name   string
	Size   uint64
	Blocks int
}

// Stat returns the file's metadata without taking the range lock: size is
// a single atomic watermark and the block count is advisory, so a Stat
// concurrent with writes sees some consistent recent state, as with any
// live file system. It follows migration forwarding, so a stale handle
// stats the live file, not the frozen orphan.
func (f *File) Stat() FileInfo {
	f = f.current()
	return FileInfo{Name: f.name, Size: f.size.Load(), Blocks: f.Blocks()}
}

// Blocks reports how many blocks are resident (tests/stats).
func (f *File) Blocks() int {
	f = f.current()
	n := 0
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.Lock()
		n += len(s.blocks)
		s.mu.Unlock()
	}
	return n
}

// String implements fmt.Stringer.
func (f *File) String() string {
	return fmt.Sprintf("pfs.File(%q, %d bytes, %d blocks)", f.name, f.Size(), f.Blocks())
}
