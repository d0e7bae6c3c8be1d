package storage

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/units"
)

// The filesystem layout on the 500 GB drive. Each fsync of
// freshly-allocated extents commits one journal record per extent,
// seeking between the data and journal regions exactly like ext3/4 in
// ordered mode under chunked checkpointing.
const (
	// extentSize is the allocation granularity.
	extentSize = 4 * units.MiB
	// journalStart and journalSize locate the metadata journal region,
	// a circular log of journalRecord-sized commit records.
	journalStart  = 1 * units.GiB
	journalSize   = 128 * units.MiB
	journalRecord = 4 * units.KiB
)

// DataStart is where file extents begin, past the journal. The PFS
// servers and the in-transit staging node lay their data out from it
// too.
const DataStart = 2 * units.GiB

// FileSystem is an extent-based filesystem on one disk + page cache.
// It lays every file out contiguously: extents are allocated back to
// back from DataStart, like a fresh filesystem's, and the extents of a
// deleted file are not reused.
type FileSystem struct {
	engine *sim.Engine
	disk   Device
	cache  *PageCache

	files      map[string]*File
	nextFree   units.Bytes
	journalPos units.Bytes
	fileSeq    uint64

	// faults, when set, injects transient I/O errors and bit-rot on the
	// file read/write paths.
	faults *fault.Injector
}

// NewFileSystem creates an empty filesystem.
func NewFileSystem(engine *sim.Engine, disk Device, cache *PageCache) *FileSystem {
	return &FileSystem{
		engine:     engine,
		disk:       disk,
		cache:      cache,
		files:      make(map[string]*File),
		nextFree:   DataStart,
		journalPos: journalStart,
	}
}

// Cache returns the page cache backing the filesystem.
func (fs *FileSystem) Cache() *PageCache { return fs.cache }

// Device returns the block store backing the filesystem.
func (fs *FileSystem) Device() Device { return fs.disk }

// SetFaults attaches a fault injector to the file I/O paths; nil
// detaches it.
func (fs *FileSystem) SetFaults(inj *fault.Injector) { fs.faults = inj }

// File is a named sequence of extents. Files hold real bytes for the
// logical ranges written with data (WriteAt); ranges written sparsely
// read back as a deterministic per-file pattern.
type File struct {
	fs   *FileSystem
	name string
	seed uint64

	extents []Range     // logical order; all extentSize except maybe last
	size    units.Bytes // logical length

	retained []segment // sorted by Off, non-overlapping

	unjournaled int // extents allocated since the last fsync
}

type segment struct {
	Off  units.Bytes
	Data []byte
}

// Create makes an empty file. It panics if the name exists.
func (fs *FileSystem) Create(name string) *File {
	if _, ok := fs.files[name]; ok {
		panic(fmt.Sprintf("storage: file %q already exists", name))
	}
	fs.fileSeq++
	f := &File{fs: fs, name: name, seed: fs.fileSeq}
	fs.files[name] = f
	return f
}

// Open returns the named file, or nil.
func (fs *FileSystem) Open(name string) *File { return fs.files[name] }

// Delete removes a file and invalidates its cached pages (dirty data
// is discarded). Its extents are not reused.
func (fs *FileSystem) Delete(name string) {
	f, ok := fs.files[name]
	if !ok {
		return
	}
	for _, e := range f.extents {
		fs.cache.Invalidate(e)
	}
	delete(fs.files, name)
	f.extents = nil
	f.size = 0
}

// Sync flushes all dirty data on the node (sync(2)).
func (fs *FileSystem) Sync() { fs.cache.Sync() }

// DropCaches evicts clean pages (used between pipeline phases).
func (fs *FileSystem) DropCaches() { fs.cache.DropCaches() }

// allocExtent claims the next extent.
func (fs *FileSystem) allocExtent() Range {
	r := Range{fs.nextFree, fs.nextFree + extentSize}
	fs.nextFree = r.End
	return r
}

// ensureAllocated grows the file's extent list to cover logical offset
// end, counting new extents for journaling.
func (f *File) ensureAllocated(end units.Bytes) {
	for units.Bytes(len(f.extents))*extentSize < end {
		f.extents = append(f.extents, f.fs.allocExtent())
		f.unjournaled++
	}
}

// mediaRange maps the head of the logical range [off, off+n) onto the
// media: the part inside off's extent. The read and write paths walk a
// range extent by extent with it, building no slice.
func (f *File) mediaRange(off, n units.Bytes) Range {
	within := off % extentSize
	e := f.extents[off/extentSize]
	return Range{e.Start + within, e.Start + within + min64(n, extentSize-within)}
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Size returns the logical length.
func (f *File) Size() units.Bytes { return f.size }

// WriteAt writes real bytes at the logical offset, growing the file as
// needed. Blocks for buffering time; media time is deferred to
// write-back or Fsync. An injected transient fault fails the write with
// fault.ErrTransient before any state changes: the file is exactly as
// it was, and a retry draws a fresh fault decision.
func (f *File) WriteAt(p []byte, off units.Bytes) error {
	n := units.Bytes(len(p))
	if n == 0 {
		return nil
	}
	if f.fs.faults.WriteError() {
		return fmt.Errorf("storage: write %q at %d: %w", f.name, off, fault.ErrTransient)
	}
	f.writeCommon(off, n)
	f.retain(off, p)
	return nil
}

// WriteSparseAt is WriteAt without retaining content: the same
// allocation, cache, and timing behaviour, but reads of the range
// return a deterministic pattern. Used for bulk payloads (fio files,
// checkpoint history) whose bytes never matter.
func (f *File) WriteSparseAt(off, n units.Bytes) error {
	if n <= 0 {
		return nil
	}
	if f.fs.faults.WriteError() {
		return fmt.Errorf("storage: write %q at %d: %w", f.name, off, fault.ErrTransient)
	}
	f.writeCommon(off, n)
	f.dropRetained(Range{off, off + n})
	return nil
}

// Append writes real bytes at the end of the file.
func (f *File) Append(p []byte) error { return f.WriteAt(p, f.size) }

// AppendSparse extends the file by n pattern bytes.
func (f *File) AppendSparse(n units.Bytes) error { return f.WriteSparseAt(f.size, n) }

func (f *File) writeCommon(off, n units.Bytes) {
	if off < 0 {
		panic("storage: negative file offset")
	}
	f.ensureAllocated(off + n)
	end := off + n
	for pos := off; pos < end; {
		r := f.mediaRange(pos, end-pos)
		f.fs.cache.Write(r.Start, r.Len())
		pos += r.Len()
	}
	if end > f.size {
		f.size = end
	}
}

// ReadAt fills p from the logical offset, charging cache/media time.
// Ranges never written with real data are filled with the file's
// deterministic pattern. Reading past EOF panics: the workloads always
// know their file sizes.
//
// Injected faults surface two ways: a transient read error (time is
// charged — the device did the work — but p is not filled and
// fault.ErrTransient returns), or silent bit-rot flipping bits in the
// delivered copy only. The stored bytes are never harmed; a re-read
// draws fresh decisions and may come back clean.
func (f *File) ReadAt(p []byte, off units.Bytes) error {
	n := units.Bytes(len(p))
	if n == 0 {
		return nil
	}
	f.readTiming(off, n)
	if f.fs.faults.ReadError() {
		return fmt.Errorf("storage: read %q at %d: %w", f.name, off, fault.ErrTransient)
	}
	f.fill(p, off)
	f.fs.faults.Rot(p)
	return nil
}

// ReadSparseAt charges the timing of a read without materializing data.
func (f *File) ReadSparseAt(off, n units.Bytes) error {
	if n <= 0 {
		return nil
	}
	f.readTiming(off, n)
	if f.fs.faults.ReadError() {
		return fmt.Errorf("storage: read %q at %d: %w", f.name, off, fault.ErrTransient)
	}
	return nil
}

func (f *File) readTiming(off, n units.Bytes) {
	if off < 0 || off+n > f.size {
		panic(fmt.Sprintf("storage: read [%d,+%d) past EOF %d of %q", off, n, f.size, f.name))
	}
	for pos, end := off, off+n; pos < end; {
		r := f.mediaRange(pos, end-pos)
		f.fs.cache.Read(r.Start, r.Len())
		pos += r.Len()
	}
}

// Fsync commits the file: drains its dirty pages extent by extent,
// committing one journal record per freshly-allocated extent in
// between. The data↔journal alternation is what makes chunked
// checkpoint writes seek-bound rather than bandwidth-bound.
func (f *File) Fsync() {
	newExtents := f.unjournaled
	f.unjournaled = 0
	for i, e := range f.extents {
		f.fs.cache.SyncRange(e)
		if i >= len(f.extents)-newExtents {
			f.fs.journalCommit()
		}
	}
	if len(f.extents) == 0 {
		// Still a barrier: wait out a write-back batch in flight.
		f.fs.cache.SyncRange(Range{})
	}
}

// journalCommit writes one record to the journal region and waits for
// it (a write barrier).
func (fs *FileSystem) journalCommit() {
	if fs.journalPos+journalRecord > journalStart+journalSize {
		fs.journalPos = journalStart // circular log
	}
	end := fs.disk.Submit(OpWrite, fs.journalPos, journalRecord, nil)
	fs.journalPos += journalRecord
	fs.engine.AdvanceTo(end)
}

// retain stores real bytes for [off, off+len(p)).
func (f *File) retain(off units.Bytes, p []byte) {
	data := make([]byte, len(p))
	copy(data, p)
	f.dropRetained(Range{off, off + units.Bytes(len(p))})
	f.retained = append(f.retained, segment{off, data})
	sort.Slice(f.retained, func(i, j int) bool { return f.retained[i].Off < f.retained[j].Off })
}

// dropRetained removes retained coverage of r (trimming partial
// overlaps).
func (f *File) dropRetained(r Range) {
	var out []segment
	for _, s := range f.retained {
		sr := Range{s.Off, s.Off + units.Bytes(len(s.Data))}
		if !sr.Overlaps(r) {
			out = append(out, s)
			continue
		}
		if sr.Start < r.Start {
			out = append(out, segment{sr.Start, s.Data[:r.Start-sr.Start]})
		}
		if sr.End > r.End {
			out = append(out, segment{r.End, s.Data[r.End-sr.Start:]})
		}
	}
	f.retained = out
}

// fill copies retained bytes into p, patterning unwritten gaps.
func (f *File) fill(p []byte, off units.Bytes) {
	end := off + units.Bytes(len(p))
	for i := range p {
		p[i] = patternByte(f.seed, off+units.Bytes(i))
	}
	for _, s := range f.retained {
		sr := Range{s.Off, s.Off + units.Bytes(len(s.Data))}
		seg := Range{max64(sr.Start, off), min64(sr.End, end)}
		if seg.Empty() {
			continue
		}
		copy(p[seg.Start-off:seg.End-off], s.Data[seg.Start-sr.Start:seg.End-sr.Start])
	}
}

// patternByte is the deterministic content of sparse file ranges.
func patternByte(seed uint64, off units.Bytes) byte {
	x := seed*0x9E3779B97F4A7C15 + uint64(off)*0xBF58476D1CE4E5B9
	x ^= x >> 29
	return byte(x)
}
