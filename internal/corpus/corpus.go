// Package corpus is the mmap-backed streaming container for large sets
// of binary IR programs (internal/irbin frames): the storage side of
// the million-program throughput ladder. A corpus file is
//
//	header | meta | frame₀ frame₁ … frameₙ₋₁ | index
//
// with a fixed 32-byte header (magic, version, program count, index
// offset, meta length), a free-text meta string describing how the
// corpus was generated, the programs as concatenated self-delimiting
// irbin frames, and a trailing (offset, length) index — one 16-byte
// entry per program — enabling random access without walking frames.
//
// The index trails the data so the writer streams frames without
// knowing the count up front (the header is patched on Close). The
// reader maps the file read-only when the platform allows (mmap_unix),
// falling back to a plain read elsewhere: either way Data aliases one
// flat buffer, and programs decoded from it must be dropped before
// Close unmaps it — the same lifetime rule as irbin's zero-copy decode.
package corpus

import (
	"encoding/binary"
	"fmt"
	"os"

	"repro/internal/ir"
	"repro/internal/irbin"
)

// Magic opens every corpus file.
const Magic = "LSCO"

// Version is the current file-format version. Version 2 holds irbin
// version 2 frames; Open refuses version 1 files, whose frames the
// codec no longer decodes.
const Version = 2

// headerSize is the fixed portion before the meta string.
const headerSize = 32

// indexEntrySize is one (offset, length) pair in the trailing index.
const indexEntrySize = 16

// Writer streams programs into a corpus file. Not concurrency-safe.
type Writer struct {
	f     *os.File
	off   uint64 // current write offset
	index []byte // accumulated (offset, length) entries
	count uint64
	err   error
}

// Create opens path for writing and stamps the header and meta string.
// meta is free text recorded verbatim (generator settings, seeds); keep
// it short — it is read eagerly by every Open.
func Create(path, meta string) (*Writer, error) {
	if len(meta) > 1<<20 {
		return nil, fmt.Errorf("corpus: meta string too large (%d bytes)", len(meta))
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f}
	// Header with count/indexOff zero; Close patches the real values.
	hdr := make([]byte, headerSize)
	copy(hdr, Magic)
	binary.LittleEndian.PutUint32(hdr[4:], Version)
	binary.LittleEndian.PutUint32(hdr[24:], uint32(len(meta)))
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.WriteString(meta); err != nil {
		f.Close()
		return nil, err
	}
	w.off = uint64(headerSize + len(meta))
	return w, nil
}

// AddFrame appends one pre-encoded irbin frame.
func (w *Writer) AddFrame(frame []byte) error {
	if w.err != nil {
		return w.err
	}
	if _, err := irbin.FrameSize(frame); err != nil {
		w.err = fmt.Errorf("corpus: refusing to add bad frame: %w", err)
		return w.err
	}
	if _, err := w.f.Write(frame); err != nil {
		w.err = err
		return err
	}
	var ent [indexEntrySize]byte
	binary.LittleEndian.PutUint64(ent[0:], w.off)
	binary.LittleEndian.PutUint64(ent[8:], uint64(len(frame)))
	w.index = append(w.index, ent[:]...)
	w.off += uint64(len(frame))
	w.count++
	return nil
}

// Add encodes prog and appends it, reusing buf (returned grown) so a
// generation loop encodes without per-program allocation.
func (w *Writer) Add(prog *ir.Program, buf []byte) ([]byte, error) {
	buf = irbin.AppendProgram(buf[:0], prog)
	return buf, w.AddFrame(buf)
}

// Count reports the programs added so far.
func (w *Writer) Count() int { return int(w.count) }

// Close writes the index, patches the header, and closes the file. The
// file is not a valid corpus until Close returns nil.
func (w *Writer) Close() error {
	if w.err != nil {
		w.f.Close()
		return w.err
	}
	indexOff := w.off
	if _, err := w.f.Write(w.index); err != nil {
		w.f.Close()
		return err
	}
	var patch [24]byte
	binary.LittleEndian.PutUint64(patch[0:], w.count)
	binary.LittleEndian.PutUint64(patch[8:], indexOff)
	if _, err := w.f.WriteAt(patch[:16], 8); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Reader is a random-access view of a corpus file. The underlying
// buffer is mmap'd where supported, so Frame/Decode results alias the
// mapping and must not be used after Close. Safe for concurrent reads;
// give each goroutine its own decode arena.
type Reader struct {
	data    []byte
	meta    string
	index   []byte // raw index entries, aliasing data
	count   int
	unmap   func() error
	dataOff int // first byte past header+meta: earliest legal frame offset
}

// Open maps path and validates header and index. Every index entry is
// bounds-checked here, so Frame never needs to re-validate offsets.
func Open(path string) (*Reader, error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	r, err := newReader(data)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, err
	}
	r.unmap = unmap
	return r, nil
}

// newReader validates an in-memory corpus image. Split from Open for
// corruption tests, which corrupt byte slices rather than files.
func newReader(data []byte) (*Reader, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("corpus: file too small (%d bytes)", len(data))
	}
	if string(data[:4]) != Magic {
		return nil, fmt.Errorf("corpus: bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != Version {
		return nil, fmt.Errorf("corpus: unsupported version %d (have %d)", v, Version)
	}
	count := binary.LittleEndian.Uint64(data[8:])
	indexOff := binary.LittleEndian.Uint64(data[16:])
	metaLen := binary.LittleEndian.Uint32(data[24:])
	dataOff := uint64(headerSize) + uint64(metaLen)
	if dataOff > uint64(len(data)) {
		return nil, fmt.Errorf("corpus: meta length %d overruns file", metaLen)
	}
	need := count * indexEntrySize
	if count > uint64(len(data))/indexEntrySize { // overflow-safe
		return nil, fmt.Errorf("corpus: count %d impossible for %d-byte file", count, len(data))
	}
	if indexOff < dataOff || indexOff+need > uint64(len(data)) {
		return nil, fmt.Errorf("corpus: index [%d,+%d) outside file of %d bytes", indexOff, need, len(data))
	}
	if indexOff+need != uint64(len(data)) {
		return nil, fmt.Errorf("corpus: %d trailing bytes after index", uint64(len(data))-(indexOff+need))
	}
	r := &Reader{
		data:    data,
		meta:    string(data[headerSize:dataOff]),
		index:   data[indexOff : indexOff+need],
		count:   int(count),
		dataOff: int(dataOff),
	}
	for i := 0; i < r.count; i++ {
		off, n := r.entry(i)
		if off < uint64(r.dataOff) || n > indexOff || off > indexOff-n {
			return nil, fmt.Errorf("corpus: program %d at [%d,+%d) outside data region [%d,%d)", i, off, n, r.dataOff, indexOff)
		}
	}
	return r, nil
}

func (r *Reader) entry(i int) (off, n uint64) {
	e := r.index[i*indexEntrySize:]
	return binary.LittleEndian.Uint64(e), binary.LittleEndian.Uint64(e[8:])
}

// Count reports the number of programs.
func (r *Reader) Count() int { return r.count }

// Meta returns the writer's free-text description.
func (r *Reader) Meta() string { return r.meta }

// Size reports the total file size in bytes.
func (r *Reader) Size() int { return len(r.data) }

// Frame returns program i's raw frame, aliasing the mapping.
func (r *Reader) Frame(i int) []byte {
	off, n := r.entry(i)
	return r.data[off : off+n : off+n]
}

// Decode decodes program i into arena. The program aliases both arena
// and mapping: it dies at the arena's next Decode or the reader's
// Close, whichever comes first.
func (r *Reader) Decode(i int, arena *irbin.Arena) (*ir.Program, error) {
	prog, _, err := arena.Decode(r.Frame(i))
	if err != nil {
		return nil, fmt.Errorf("corpus: program %d: %w", i, err)
	}
	return prog, nil
}

// Close releases the mapping. All frames and decoded programs obtained
// from this reader are invalid afterwards.
func (r *Reader) Close() error {
	r.data, r.index = nil, nil
	if r.unmap != nil {
		u := r.unmap
		r.unmap = nil
		return u()
	}
	return nil
}
