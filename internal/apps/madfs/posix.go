// MadFS-POSIX grows the single-file block log into a small POSIX-flavored
// PM filesystem: a directory of dentries, a fixed inode table, and
// create/write/append/rename/unlink/read built on the same copy-on-write
// block log, with a journaled rename commit protocol and an Fsync that
// replays the log. It carries two seeded crash-consistency bugs beyond the
// paper's Table 2 (registered as extensions #21 and #22):
//
//	#21 non-atomic rename: the new dentry is published with a plain store
//	    and never persisted, while the old dentry's removal persists right
//	    after — a crash in between orphans the inode (neither name
//	    resolves).
//	#22 torn append: the file size is published and persisted before the
//	    appended data blocks are written, which themselves are never
//	    flushed — a crash leaves a persisted size covering garbage.
//
// The fixed variant persists the dentry publication, journals the rename
// (intent record, COMMIT, apply, IDLE), and persists append data before the
// log commit with the size published last.
//
// Chipmunk-style syscall-level oracles (LeBlanc et al., arXiv 2204.06066)
// validate every crash image: (a) rename atomicity — the old or the new
// dentry resolves, never both or neither; (b) appends are never torn —
// the persisted size and the tail contents agree (file content is
// self-describing: word w of a generation-g file equals tag(g, w));
// (c) no inode is reachable-from-nowhere or doubly linked. See DESIGN.md
// §12 for the quiescence rules splitting them across ValidateCrashPoint
// (always safe) and ValidateCrash (operation boundaries only).
package madfs

import (
	"fmt"

	"hawkset/internal/apps"
	"hawkset/internal/pmem"
	"hawkset/internal/pmrt"
	"hawkset/internal/ycsb"
)

// Filesystem geometry. Every metadata record (dentry, inode) occupies one
// full cache line so that persisting one record never incidentally
// persists a neighbor — the seeded bugs' unpersisted windows stay open
// exactly as written.
const (
	nInodes    = 256
	nDentries  = 256
	recSize    = 64           // one cache line per dentry / inode record
	pfsBlock   = 256          // data block bytes
	pfsWords   = pfsBlock / 8 // words per data block
	maxVBlocks = 8            // blocks per file
	maxFile    = maxVBlocks * pfsBlock
	pfsCapLog  = 1 << 15 // committed log entries (append-only, no ring reuse)

	pfsMagic = 0x4d41444653505358 // "MADFSPSX"
)

// Inode states (low byte of the inode word; the allocation generation
// lives in the high bits). FREE and the zero-filled fresh device coincide.
const (
	stFree = iota
	stInit
	stLive
	stUnlinking
)

// Rename-journal layout (one cache line) and states.
const (
	jOffIno   = 0  // inode number + 1
	jOffSrc   = 8  // source slot address
	jOffDst   = 16 // destination slot address
	jOffName  = 24 // destination name
	jOffState = 32

	jIdle   = 0
	jCommit = 1
)

// Superblock layout (one cache line), persisted once at Setup.
const (
	sbMagic = 0
	sbDir   = 8
	sbIno   = 16
	sbTab   = 24
	sbLog   = 32
	sbJrn   = 40
	sbHead  = 48 // the log-head counter itself
)

// PFS is a MadFS-POSIX instance.
type PFS struct {
	rt    *pmrt.Runtime
	mu    *pmrt.Mutex
	fixed bool

	super uint64 // superblock; every other address derives from it
	dir   uint64 // nDentries × recSize: +0 name (0 = free), +8 inode+1
	ino   uint64 // nInodes × recSize: +0 gen<<8|state, +8 size (bytes)
	tab   uint64 // nInodes × maxVBlocks × 8: volatile block mapping
	log   uint64 // pfsCapLog × 8: packed commit entries
	jrn   uint64 // rename journal
	head  uint64 // address of the committed-entry counter

	free    freeList // recycled data blocks, deduplicated
	freeIno []uint64 // volatile inode allocator
	nextGen uint64
}

// NewPosix creates a MadFS-POSIX instance; fixed selects the repaired
// rename and append protocols.
func NewPosix(rt *pmrt.Runtime, fixed bool) apps.App {
	return &PFS{rt: rt, mu: rt.NewMutex("pfs"), fixed: fixed}
}

// AttachPosix binds a PFS to an existing superblock, the way mount-time
// recovery re-attaches after a crash.
func AttachPosix(rt *pmrt.Runtime, super uint64, fixed bool) *PFS {
	return &PFS{rt: rt, mu: rt.NewMutex("pfs"), fixed: fixed, super: super}
}

// Name implements apps.App.
func (fs *PFS) Name() string { return "MadFS-POSIX" }

// Super returns the superblock address for post-crash re-attachment.
func (fs *PFS) Super() uint64 { return fs.super }

func (fs *PFS) slotAddr(s uint64) uint64 { return fs.dir + s*recSize }
func (fs *PFS) inoAddr(i uint64) uint64  { return fs.ino + i*recSize }
func (fs *PFS) tabAddr(i, v uint64) uint64 {
	return fs.tab + (i*maxVBlocks+v)*8
}

// tag is the self-describing content of file word w under allocation
// generation g; the torn-append oracle verifies tail contents from the
// crash image alone, with no volatile knowledge.
func tag(gen, w uint64) uint64 {
	h := gen<<32 ^ w
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// Setup allocates and persists the filesystem regions. A fresh device is
// zero-filled, so FREE inodes and empty dentries need no initialization.
func (fs *PFS) Setup(c *pmrt.Ctx) {
	fs.super = c.Alloc(recSize)
	fs.dir = c.Alloc(nDentries * recSize)
	fs.ino = c.Alloc(nInodes * recSize)
	fs.tab = c.Alloc(nInodes * maxVBlocks * 8)
	fs.log = c.Alloc(pfsCapLog * 8)
	fs.jrn = c.Alloc(recSize)
	fs.head = fs.super + sbHead
	c.Store8(fs.super+sbDir, fs.dir)
	c.Store8(fs.super+sbIno, fs.ino)
	c.Store8(fs.super+sbTab, fs.tab)
	c.Store8(fs.super+sbLog, fs.log)
	c.Store8(fs.super+sbJrn, fs.jrn)
	c.Store8(fs.super+sbHead, 0)
	c.Store8(fs.super+sbMagic, pfsMagic)
	c.Persist(fs.super, recSize)
	for i := uint64(nInodes); i > 0; i-- {
		fs.freeIno = append(fs.freeIno, i-1)
	}
	fs.nextGen = 1
}

// Apply implements apps.App. Paths are the workload's scrambled-zipfian
// keys, forced odd so a name word is never the empty-slot sentinel.
func (fs *PFS) Apply(c *pmrt.Ctx, op ycsb.Op) {
	name := op.Key | 1
	switch op.Kind {
	case ycsb.OpCreate:
		fs.Create(c, name)
	case ycsb.OpAppend:
		fs.Append(c, name, 1+op.Value%3)
	case ycsb.OpWrite:
		fs.WriteAt(c, name, op.Off%maxFile, op.Len)
	case ycsb.OpRename:
		fs.Rename(c, name, op.Value|1)
	case ycsb.OpUnlink:
		fs.Unlink(c, name)
	default:
		fs.ReadFile(c, name)
	}
}

// resolve looks a name up under the filesystem lock (the writers' path;
// the lock-free reader is lookupDentry).
func (fs *PFS) resolve(c *pmrt.Ctx, name uint64) (slot, idx uint64, ok bool) {
	s := fs.slotAddr(name % nDentries)
	if c.Load8(s) != name {
		return s, 0, false
	}
	i := c.Load8(s + 8)
	if i == 0 || i > nInodes {
		return s, 0, false
	}
	return s, i - 1, true
}

// Create allocates an inode and links a dentry. Commit protocol: persist
// the INIT inode, link the dentry (inode word, then the name word as the
// commit), then promote to LIVE. A crash at any point leaves either a
// GC-able INIT inode or a fully linked file. Direct-mapped slots: a name
// hashing onto an occupied slot is a no-op (a documented limitation, like
// rename onto an existing name).
func (fs *PFS) Create(c *pmrt.Ctx, name uint64) {
	c.Lock(fs.mu)
	defer c.Unlock(fs.mu)
	s := fs.slotAddr(name % nDentries)
	if c.Load8(s) != 0 {
		return
	}
	n := len(fs.freeIno)
	if n == 0 {
		return
	}
	idx := fs.freeIno[n-1]
	fs.freeIno = fs.freeIno[:n-1]
	gen := fs.nextGen
	fs.nextGen++
	ia := fs.inoAddr(idx)
	c.Store8(ia, gen<<8|stInit)
	c.Store8(ia+8, 0)
	c.Persist(ia, 16)
	fs.linkDentry(c, s, idx, name)
	c.Store8(ia, gen<<8|stLive)
	c.Persist(ia, 8)
}

// linkDentry publishes a fresh directory entry: inode first, then the name
// word as the commit point. Both stores persist in both variants — create
// is correct; the seeded rename bug lives in publishDentry.
func (fs *PFS) linkDentry(c *pmrt.Ctx, slot, idx, name uint64) {
	c.Store8(slot+8, idx+1)
	c.Persist(slot+8, 8)
	c.Store8(slot, name)
	c.Persist(slot, 8)
}

// publishDentry installs the destination name of a rename. The buggy
// variant omits the persist: the new entry lives only in the cache while
// the old entry's removal persists right after — a crash in between
// orphans the inode (seeded bug #21).
func (fs *PFS) publishDentry(c *pmrt.Ctx, slot, name uint64) {
	c.Store8(slot, name)
	if fs.fixed {
		c.Persist(slot, 8)
	}
}

// Rename moves a name to a new slot. The fixed variant records the intent
// in the rename journal, persists COMMIT, applies (destination inode,
// destination name, source clear — each persisted), and returns the
// journal to IDLE: recovery redoes a committed rename, so exactly one of
// the two names resolves at every crash point. The buggy variant applies
// directly with an unpersisted destination-name store. Renaming onto an
// occupied slot is a no-op (no replacement semantics).
func (fs *PFS) Rename(c *pmrt.Ctx, src, dst uint64) {
	c.Lock(fs.mu)
	defer c.Unlock(fs.mu)
	ss, idx, ok := fs.resolve(c, src)
	if !ok {
		return
	}
	ds := fs.slotAddr(dst % nDentries)
	if ds == ss {
		// Same-slot rename: the name swap is a single 8-byte store.
		fs.publishDentry(c, ss, dst)
		return
	}
	if c.Load8(ds) != 0 {
		return
	}
	if fs.fixed {
		c.Store8(fs.jrn+jOffIno, idx+1)
		c.Store8(fs.jrn+jOffSrc, ss)
		c.Store8(fs.jrn+jOffDst, ds)
		c.Store8(fs.jrn+jOffName, dst)
		c.Persist(fs.jrn, 32)
		c.Store8(fs.jrn+jOffState, jCommit)
		c.Persist(fs.jrn+jOffState, 8)
	}
	c.Store8(ds+8, idx+1)
	c.Persist(ds+8, 8)
	fs.publishDentry(c, ds, dst)
	c.Store8(ss, 0)
	c.Persist(ss, 8)
	if fs.fixed {
		c.Store8(fs.jrn+jOffState, jIdle)
		c.Persist(fs.jrn+jOffState, 8)
	}
}

// Unlink removes a name and frees its inode: UNLINKING persisted first, so
// a crash mid-unlink is rolled forward by recovery, never mistaken for an
// orphan. Data blocks return to the free list only after the dentry
// removal is durable.
func (fs *PFS) Unlink(c *pmrt.Ctx, name uint64) {
	c.Lock(fs.mu)
	defer c.Unlock(fs.mu)
	ss, idx, ok := fs.resolve(c, name)
	if !ok {
		return
	}
	ia := fs.inoAddr(idx)
	gen := c.Load8(ia) >> 8
	c.Store8(ia, gen<<8|stUnlinking)
	c.Persist(ia, 8)
	c.Store8(ss, 0)
	c.Persist(ss, 8)
	for v := uint64(0); v < maxVBlocks; v++ {
		ta := fs.tabAddr(idx, v)
		if b := c.Load8(ta); b != 0 {
			fs.free.push(b)
			c.Store8(ta, 0)
		}
	}
	c.Store8(ia+8, 0)
	c.Persist(ia+8, 8)
	c.Store8(ia, gen<<8|stFree)
	c.Persist(ia, 8)
	fs.freeIno = append(fs.freeIno, idx)
}

// Append extends a file by words 8-byte words. The fixed variant writes
// and persists the data blocks, commits them through the log, and
// publishes the size last; the buggy variant publishes the size first and
// never flushes the data (seeded bug #22).
func (fs *PFS) Append(c *pmrt.Ctx, name uint64, words uint64) {
	c.Lock(fs.mu)
	defer c.Unlock(fs.mu)
	_, idx, ok := fs.resolve(c, name)
	if !ok {
		return
	}
	ia := fs.inoAddr(idx)
	gen := c.Load8(ia) >> 8
	size := c.Load8(ia + 8)
	n := words * 8
	if size+n > maxFile {
		return
	}
	if !fs.fixed {
		fs.publishSize(c, ia, size+n)
	}
	for off := size; off < size+n; {
		v := off / pfsBlock
		bo := off % pfsBlock
		chunk := pfsBlock - bo
		if off+chunk > size+n {
			chunk = size + n - off
		}
		if !fs.writeBlock(c, idx, gen, v, bo, chunk, bo, fs.fixed) {
			return // log exhausted: size may overhang, fixed never gets here first
		}
		off += chunk
	}
	if fs.fixed {
		fs.publishSize(c, ia, size+n)
	}
}

// WriteAt overwrites committed bytes; writes beyond the file size are
// clamped. Overwrites are correct in both variants — the seeded append
// bug is an ordering bug, not a general data-loss bug.
func (fs *PFS) WriteAt(c *pmrt.Ctx, name, off, length uint64) {
	c.Lock(fs.mu)
	defer c.Unlock(fs.mu)
	_, idx, ok := fs.resolve(c, name)
	if !ok {
		return
	}
	ia := fs.inoAddr(idx)
	gen := c.Load8(ia) >> 8
	size := c.Load8(ia + 8)
	if off >= size {
		return
	}
	if off+length > size {
		length = size - off
	}
	for o := off; o < off+length; {
		v := o / pfsBlock
		bo := o % pfsBlock
		chunk := pfsBlock - bo
		if o+chunk > off+length {
			chunk = off + length - o
		}
		committed := size - v*pfsBlock
		if committed > pfsBlock {
			committed = pfsBlock
		}
		if !fs.writeBlock(c, idx, gen, v, bo, chunk, committed, true) {
			return
		}
		o += chunk
	}
}

// writeBlock is the copy-on-write engine shared by Append and WriteAt: a
// fresh physical block receives the committed content of virtual block v —
// the prefix [0, bo) and, for mid-block overwrites, the suffix
// [bo+chunk, committed) — plus the new words [bo, bo+chunk), is committed
// through the log, and replaces the old block in the volatile mapping.
// committed is the number of previously committed bytes in this virtual
// block (appends pass bo: nothing beyond the write exists yet). persist
// flushes the new block's image before the commit; Append's buggy path
// passes false.
func (fs *PFS) writeBlock(c *pmrt.Ctx, idx, gen, v, bo, chunk, committed uint64, persist bool) bool {
	if c.Load8(fs.head) >= pfsCapLog {
		return false // log exhausted (real MadFS compacts at fsync)
	}
	nb := fs.allocBlock(c)
	old := c.Load8(fs.tabAddr(idx, v))
	for w := uint64(0); w < bo/8; w++ {
		var val uint64
		if old != 0 {
			val = c.Load8(old + w*8)
		}
		c.Store8(nb+w*8, val)
	}
	fs.appendData(c, nb, gen, v, bo, chunk, persist)
	for w := (bo + chunk) / 8; w < committed/8; w++ {
		var val uint64
		if old != 0 {
			val = c.Load8(old + w*8)
		}
		c.Store8(nb+w*8, val)
	}
	if persist && committed > bo+chunk {
		c.Persist(nb+bo+chunk, committed-(bo+chunk))
	}
	fs.commitBlock(c, idx, v, nb)
	fs.publishMapping(c, idx, v, nb)
	fs.free.push(old)
	return true
}

// appendData writes the new words of an append or overwrite with their
// generation tags. With persist the whole block image (prefix copy
// included) is durable before the log commit; without it the stores stay
// in the cache forever — the data half of seeded bug #22.
func (fs *PFS) appendData(c *pmrt.Ctx, nb, gen, v, bo, chunk uint64, persist bool) {
	for w := bo / 8; w < (bo+chunk)/8; w++ {
		c.Store8(nb+w*8, tag(gen, v*pfsWords+w))
	}
	if persist {
		c.Persist(nb, bo+chunk)
	}
}

// commitBlock makes the new block reachable after a crash: an atomic
// 8-byte log append (non-temporal, fenced) followed by the persisted head
// bump — the commit point of every file mutation, identical in both
// variants.
func (fs *PFS) commitBlock(c *pmrt.Ctx, idx, v, nb uint64) {
	head := c.Load8(fs.head)
	c.NTStore8(fs.log+(head%pfsCapLog)*8, idx<<48|v<<40|nb)
	c.Fence()
	c.Store8(fs.head, head+1)
	c.Persist(fs.head, 8)
}

// publishMapping installs the committed block in the volatile mapping
// table — durable only via Fsync's log replay, within the inherited MadFS
// fsync contract (the store side of the benign reports, like the original
// publishBlock).
func (fs *PFS) publishMapping(c *pmrt.Ctx, idx, v, nb uint64) {
	c.Store8(fs.tabAddr(idx, v), nb)
}

// publishSize persists the file size. The buggy append calls it before
// any data is written; the fixed append calls it after the commit.
func (fs *PFS) publishSize(c *pmrt.Ctx, ia, size uint64) {
	c.Store8(ia+8, size)
	c.Persist(ia+8, 8)
}

func (fs *PFS) allocBlock(c *pmrt.Ctx) uint64 {
	if a, ok := fs.free.pop(); ok {
		return a
	}
	return c.Alloc(pfsBlock)
}

// ReadFile resolves a path and sums the file's tail lock-free — the load
// side of both seeded bugs.
func (fs *PFS) ReadFile(c *pmrt.Ctx, name uint64) uint64 {
	idx, ok := fs.lookupDentry(c, name)
	if !ok {
		return 0
	}
	ia := fs.inoAddr(idx)
	size := c.Load8(ia + 8)
	if size > maxFile {
		size = maxFile
	}
	words := size / 8
	first := uint64(0)
	if words > 4 {
		first = words - 4
	}
	sum := uint64(0)
	for w := first; w < words; w++ {
		b := fs.lookupMapping(c, idx, w/pfsWords)
		if b == 0 {
			continue
		}
		sum += fs.readData(c, b, w%pfsWords)
	}
	return sum
}

// lookupDentry resolves a name lock-free (the load side of bug #21).
func (fs *PFS) lookupDentry(c *pmrt.Ctx, name uint64) (uint64, bool) {
	s := fs.slotAddr(name % nDentries)
	if c.Load8(s) != name {
		return 0, false
	}
	i := c.Load8(s + 8)
	if i == 0 || i > nInodes {
		return 0, false
	}
	return i - 1, true
}

// lookupMapping reads the volatile block table lock-free.
func (fs *PFS) lookupMapping(c *pmrt.Ctx, idx, v uint64) uint64 {
	return c.Load8(fs.tabAddr(idx, v))
}

// readData loads one word of file content (the load side of bug #22).
func (fs *PFS) readData(c *pmrt.Ctx, b, w uint64) uint64 {
	return c.Load8(b + w*8)
}

// Fsync replays the committed log into the persistent block table,
// honoring the explicit-durability contract (real MadFS compacts here).
func (fs *PFS) Fsync(c *pmrt.Ctx) error {
	c.Lock(fs.mu)
	defer c.Unlock(fs.mu)
	return fs.replayLog(c, true)
}

// replayLog rebuilds the block mapping from the committed log prefix
// (later entries win). persist flushes the rebuilt table — Fsync
// semantics; recovery leaves it volatile for the oracle walk.
func (fs *PFS) replayLog(c *pmrt.Ctx, persist bool) error {
	head := c.Load8(fs.head)
	if head > pfsCapLog {
		return fmt.Errorf("pfs: log head %d out of bounds", head)
	}
	poolSize := fs.rt.Pool.Size()
	for h := uint64(0); h < head; h++ {
		e := c.Load8(fs.log + h*8)
		idx := e >> 48
		v := (e >> 40) & 0xff
		b := e & (1<<40 - 1)
		if idx >= nInodes || v >= maxVBlocks || b == 0 || b+pfsBlock > poolSize {
			return fmt.Errorf("pfs: log entry %d corrupt (%#x)", h, e)
		}
		c.Store8(fs.tabAddr(idx, v), b)
	}
	if persist {
		c.Persist(fs.tab, nInodes*maxVBlocks*8)
	}
	return nil
}

// Recover replays a crash image the way mount would: verify the
// superblock, redo or discard the rename journal, rebuild the block
// mapping from the committed log (the Fsync replay), roll half-created
// and half-unlinked inodes forward or back, then run the three
// syscall-level oracles over the recovered tree. It returns an error on
// any unrepairable inconsistency; the crash-injection harness contains
// panics and livelocks on images too torn to walk.
func (fs *PFS) Recover(c *pmrt.Ctx) error {
	if c.Load8(fs.super+sbMagic) != pfsMagic {
		return fmt.Errorf("pfs: bad superblock magic")
	}
	poolSize := fs.rt.Pool.Size()
	fs.dir = c.Load8(fs.super + sbDir)
	fs.ino = c.Load8(fs.super + sbIno)
	fs.tab = c.Load8(fs.super + sbTab)
	fs.log = c.Load8(fs.super + sbLog)
	fs.jrn = c.Load8(fs.super + sbJrn)
	fs.head = fs.super + sbHead
	for _, r := range [][2]uint64{
		{fs.dir, nDentries * recSize}, {fs.ino, nInodes * recSize},
		{fs.tab, nInodes * maxVBlocks * 8}, {fs.log, pfsCapLog * 8},
		{fs.jrn, recSize},
	} {
		if r[0] == 0 || r[0]+r[1] > poolSize {
			return fmt.Errorf("pfs: superblock region out of bounds")
		}
	}

	// Redo a committed rename; an uncommitted intent record is ignored.
	switch st := c.Load8(fs.jrn + jOffState); st {
	case jCommit:
		ino := c.Load8(fs.jrn + jOffIno)
		src := c.Load8(fs.jrn + jOffSrc)
		dst := c.Load8(fs.jrn + jOffDst)
		name := c.Load8(fs.jrn + jOffName)
		inDir := func(a uint64) bool {
			return a >= fs.dir && a < fs.dir+nDentries*recSize && (a-fs.dir)%recSize == 0
		}
		if ino == 0 || ino > nInodes || !inDir(src) || !inDir(dst) || name == 0 {
			return fmt.Errorf("pfs: committed rename journal corrupt")
		}
		c.Store8(dst+8, ino)
		c.Persist(dst+8, 8)
		c.Store8(dst, name)
		c.Persist(dst, 8)
		c.Store8(src, 0)
		c.Persist(src, 8)
		c.Store8(fs.jrn+jOffState, jIdle)
		c.Persist(fs.jrn+jOffState, 8)
	case jIdle:
	default:
		return fmt.Errorf("pfs: rename journal state %d corrupt", st)
	}

	// Rebuild the block mapping (the Fsync log replay).
	if err := fs.replayLog(c, false); err != nil {
		return err
	}

	// Reference counts from the directory.
	var refs [nInodes]int
	for s := uint64(0); s < nDentries; s++ {
		slot := fs.slotAddr(s)
		if c.Load8(slot) == 0 {
			continue
		}
		i := c.Load8(slot + 8)
		if i == 0 || i > nInodes {
			return fmt.Errorf("pfs: dentry %d has invalid inode %d", s, i)
		}
		refs[i-1]++
	}

	// Roll in-flight creates and unlinks forward, then apply oracle (c):
	// no inode reachable from nowhere or doubly linked.
	for i := uint64(0); i < nInodes; i++ {
		ia := fs.inoAddr(i)
		w := c.Load8(ia)
		gen := w >> 8
		switch w & 0xff {
		case stInit:
			if refs[i] > 0 {
				c.Store8(ia, gen<<8|stLive)
			} else {
				c.Store8(ia, gen<<8|stFree)
			}
			c.Persist(ia, 8)
		case stUnlinking:
			if refs[i] > 0 {
				for s := uint64(0); s < nDentries; s++ {
					slot := fs.slotAddr(s)
					if c.Load8(slot) != 0 && c.Load8(slot+8) == i+1 {
						c.Store8(slot, 0)
						c.Persist(slot, 8)
					}
				}
				refs[i] = 0
			}
			c.Store8(ia+8, 0)
			c.Persist(ia+8, 8)
			c.Store8(ia, gen<<8|stFree)
			c.Persist(ia, 8)
		case stFree:
			if refs[i] > 0 {
				return fmt.Errorf("pfs oracle: dentry links free inode %d", i)
			}
		case stLive:
			if refs[i] == 0 {
				return fmt.Errorf("pfs oracle: inode %d reachable from nowhere (lost rename)", i)
			}
			if refs[i] > 1 {
				return fmt.Errorf("pfs oracle: inode %d doubly linked (%d dentries)", i, refs[i])
			}
		default:
			return fmt.Errorf("pfs oracle: inode %d state %#x corrupt", i, w&0xff)
		}
	}

	// Oracle (b): no torn appends — size and tail contents agree.
	for s := uint64(0); s < nDentries; s++ {
		slot := fs.slotAddr(s)
		if c.Load8(slot) == 0 {
			continue
		}
		idx := c.Load8(slot+8) - 1
		ia := fs.inoAddr(idx)
		gen := c.Load8(ia) >> 8
		size := c.Load8(ia + 8)
		if size > maxFile || size%8 != 0 {
			return fmt.Errorf("pfs oracle: inode %d torn size %d", idx, size)
		}
		for w := uint64(0); w < size/8; w++ {
			b := c.Load8(fs.tabAddr(idx, w/pfsWords))
			if b == 0 {
				return fmt.Errorf("pfs oracle: inode %d word %d unmapped under size %d", idx, w, size)
			}
			if got := c.Load8(b + (w%pfsWords)*8); got != tag(gen, w) {
				return fmt.Errorf("pfs oracle: inode %d torn append at word %d", idx, w)
			}
		}
	}
	return nil
}

// committedMapping replays the persisted log prefix into a volatile map —
// the validators' view of what a crash can reach. Violations cover torn
// log state: a committed head can never point past valid entries, because
// every entry is fenced before its head bump persists.
func (fs *PFS) committedMapping(p *pmem.Pool) (map[uint64]uint64, []string) {
	var v []string
	head := p.ReadPersistent8(fs.head)
	if head > pfsCapLog {
		return nil, append(v, fmt.Sprintf("log head %d out of bounds", head))
	}
	m := make(map[uint64]uint64, head)
	for h := uint64(0); h < head; h++ {
		e := p.ReadPersistent8(fs.log + h*8)
		idx := e >> 48
		vb := (e >> 40) & 0xff
		b := e & (1<<40 - 1)
		if idx >= nInodes || vb >= maxVBlocks || b == 0 || b+pfsBlock > p.Size() {
			v = append(v, fmt.Sprintf("committed log entry %d corrupt (%#x)", h, e))
			continue
		}
		m[idx*maxVBlocks+vb] = b
	}
	return m, v
}

// ValidateCrashPoint implements apps.CrashPointValidator: the always-safe
// subset of the syscall oracles, holding at every device-serialization
// point of a correct execution. In-flight creates (INIT) and unlinks
// (UNLINKING) are excused; a LIVE inode with no dentry is an orphan at any
// point (the fixed rename persists the new name before the old one's
// removal, the journal redoes the rest), and a persisted size always
// covers committed, tag-valid content (the fixed append publishes size
// last).
func (fs *PFS) ValidateCrashPoint(p *pmem.Pool) []string {
	var v []string
	if p.ReadPersistent8(fs.super+sbMagic) != pfsMagic {
		return append(v, "superblock magic lost")
	}
	jstate := p.ReadPersistent8(fs.jrn + jOffState)
	jino := uint64(0)
	switch jstate {
	case jCommit:
		jino = p.ReadPersistent8(fs.jrn + jOffIno)
	case jIdle:
	default:
		v = append(v, fmt.Sprintf("rename journal state %d corrupt", jstate))
	}

	m, mv := fs.committedMapping(p)
	v = append(v, mv...)
	if m == nil {
		return v
	}

	var refs [nInodes]int
	for s := uint64(0); s < nDentries; s++ {
		slot := fs.slotAddr(s)
		if p.ReadPersistent8(slot) == 0 {
			continue
		}
		i := p.ReadPersistent8(slot + 8)
		if i == 0 || i > nInodes {
			v = append(v, fmt.Sprintf("dentry %d links invalid inode %d", s, i))
			continue
		}
		refs[i-1]++
	}
	for i := uint64(0); i < nInodes; i++ {
		w := p.ReadPersistent8(fs.inoAddr(i))
		switch w & 0xff {
		case stFree:
			if refs[i] > 0 {
				v = append(v, fmt.Sprintf("dentry links free inode %d", i))
			}
		case stLive:
			if refs[i] == 0 {
				v = append(v, fmt.Sprintf("inode %d reachable from nowhere (lost rename)", i))
			}
			if refs[i] > 1 && jino != i+1 {
				v = append(v, fmt.Sprintf("inode %d doubly linked (%d dentries)", i, refs[i]))
			}
		case stInit, stUnlinking:
			// In-flight create/unlink: recovery rolls these forward.
		default:
			v = append(v, fmt.Sprintf("inode %d state %#x corrupt", i, w&0xff))
		}
	}

	// Torn-append oracle over every named inode.
	for s := uint64(0); s < nDentries; s++ {
		slot := fs.slotAddr(s)
		if p.ReadPersistent8(slot) == 0 {
			continue
		}
		i := p.ReadPersistent8(slot + 8)
		if i == 0 || i > nInodes {
			continue // already reported
		}
		idx := i - 1
		ia := fs.inoAddr(idx)
		gen := p.ReadPersistent8(ia) >> 8
		size := p.ReadPersistent8(ia + 8)
		if size > maxFile || size%8 != 0 {
			v = append(v, fmt.Sprintf("inode %d torn size %d", idx, size))
			continue
		}
		for w := uint64(0); w < size/8; w++ {
			b, ok := m[idx*maxVBlocks+w/pfsWords]
			if !ok {
				v = append(v, fmt.Sprintf("inode %d word %d unmapped under persisted size %d", idx, w, size))
				break
			}
			if got := p.ReadPersistent8(b + (w%pfsWords)*8); got != tag(gen, w) {
				v = append(v, fmt.Sprintf("inode %d torn append at word %d (size %d)", idx, w, size))
				break
			}
		}
	}
	return v
}

// ValidateCrash implements apps.CrashValidator: the full oracle set at
// operation boundaries, where the volatile view is the ground truth and
// every transient state must have drained — silent dentry loss (oracle a),
// undurable sizes or content (oracle b), in-flight inode states, and a
// non-IDLE journal are violations here even when always-safe checks pass.
func (fs *PFS) ValidateCrash(p *pmem.Pool) []string {
	v := fs.ValidateCrashPoint(p)
	if p.ReadPersistent8(fs.jrn+jOffState) != jIdle {
		v = append(v, "rename journal not idle at quiescence")
	}
	m, _ := fs.committedMapping(p)
	for s := uint64(0); s < nDentries; s++ {
		slot := fs.slotAddr(s)
		vn, pn := p.Load8(slot), p.ReadPersistent8(slot)
		if vn != pn {
			v = append(v, fmt.Sprintf("dentry %d diverges: volatile %#x vs persisted %#x (silent rename loss)", s, vn, pn))
			continue
		}
		if vn == 0 {
			continue
		}
		if vi, pi := p.Load8(slot+8), p.ReadPersistent8(slot+8); vi != pi {
			v = append(v, fmt.Sprintf("dentry %d inode diverges: volatile %d vs persisted %d", s, vi, pi))
		}
	}
	for i := uint64(0); i < nInodes; i++ {
		ia := fs.inoAddr(i)
		vw, pw := p.Load8(ia), p.ReadPersistent8(ia)
		if vw != pw {
			v = append(v, fmt.Sprintf("inode %d state diverges: volatile %#x vs persisted %#x", i, vw, pw))
		}
		switch pw & 0xff {
		case stInit, stUnlinking:
			v = append(v, fmt.Sprintf("inode %d in-flight state %#x at quiescence", i, pw&0xff))
		}
		vs, ps := p.Load8(ia+8), p.ReadPersistent8(ia+8)
		if vs != ps {
			v = append(v, fmt.Sprintf("inode %d size diverges: volatile %d vs persisted %d", i, vs, ps))
		}
		if pw&0xff != stLive || m == nil {
			continue
		}
		// Committed content must match the volatile truth word for word.
		size := ps
		if size > maxFile {
			continue // already reported as torn
		}
		for w := uint64(0); w < size/8; w++ {
			b, ok := m[i*maxVBlocks+w/pfsWords]
			if !ok {
				continue // already reported by the point check
			}
			vb := p.Load8(fs.tabAddr(i, w/pfsWords))
			if vb == 0 {
				continue
			}
			if p.ReadPersistent8(b+(w%pfsWords)*8) != p.Load8(vb+(w%pfsWords)*8) {
				v = append(v, fmt.Sprintf("inode %d word %d content not durable", i, w))
				break
			}
		}
	}
	return v
}

func init() {
	apps.Register(&apps.Entry{
		Name:    "MadFS-POSIX",
		Factory: NewPosix,
		Bugs: []apps.BugSpec{
			{
				ID: 21, New: true, Extension: true,
				StoreFunc:   "madfs.(*PFS).publishDentry",
				LoadFunc:    "madfs.(*PFS).lookupDentry",
				Description: "rename publishes the new dentry without persisting it before the persisted removal of the old — a crash orphans the inode",
			},
			{
				ID: 22, New: true, Extension: true,
				StoreFunc:   "madfs.(*PFS).appendData",
				LoadFunc:    "madfs.(*PFS).readData",
				Description: "append publishes the file size before the data, which is never flushed — a crash leaves the persisted size covering garbage",
			},
		},
		// The lock-free reader races every writer-side publication, and the
		// never-persisted mapping table (the inherited fsync contract, like
		// the original MadFS) races even the locked readers: once the mutex
		// is released with the store still unpersisted, HawkSet's windowed
		// lockset is empty. All within contract.
		Benign: apps.Pairs(
			[]string{
				"madfs.(*PFS).linkDentry", "madfs.(*PFS).publishDentry",
				"madfs.(*PFS).publishMapping", "madfs.(*PFS).publishSize",
				"madfs.(*PFS).appendData", "madfs.(*PFS).writeBlock",
				"madfs.(*PFS).Create", "madfs.(*PFS).Unlink", "madfs.(*PFS).Rename",
			},
			[]string{
				"madfs.(*PFS).lookupDentry", "madfs.(*PFS).lookupMapping",
				"madfs.(*PFS).readData", "madfs.(*PFS).ReadFile",
				"madfs.(*PFS).Create", "madfs.(*PFS).Rename", "madfs.(*PFS).Unlink",
				"madfs.(*PFS).Append", "madfs.(*PFS).WriteAt",
				"madfs.(*PFS).writeBlock", "madfs.(*PFS).resolve",
			},
		),
		Spec:     ycsb.FSSpec,
		PoolSize: 64 << 20,
		Recover: func(c *pmrt.Ctx, prev apps.App, fixed bool) error {
			return AttachPosix(c.Runtime(), prev.(*PFS).Super(), fixed).Recover(c)
		},
	})
}
