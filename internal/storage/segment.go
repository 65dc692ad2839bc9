// segment.go implements the checkpoint file format: one sorted
// immutable segment per relation. Entries are (ordered tuple key,
// multiplicity) pairs packed into ~4 KiB blocks; an index block at the
// tail records each block's offset, length and first key (recovery
// reads every block, so the first keys are checksummed but not kept).
// Layout:
//
//	magic "ARCSEG01"
//	data blocks: [keyLen uvarint][key][mult uvarint]*
//	index: name, attrs, rows, then per block (off, len, firstKey)
//	footer: [8-byte index offset][4-byte index CRC32]["ARCSEG01"]
package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"repro/internal/relation"
	"repro/internal/value"
)

var segMagic = [8]byte{'A', 'R', 'C', 'S', 'E', 'G', '0', '1'}

// segBlockSize is the target uncompressed data-block size.
const segBlockSize = 4096

const segFooterSize = 8 + 4 + 8

// segEntry is one decoded block entry.
type segEntry struct {
	tup  relation.Tuple
	mult int64
}

// writeSegment renders a relation into a sorted segment file at path.
func writeSegment(path string, r *relation.Relation) error {
	type kv struct {
		key  []byte
		mult int64
	}
	var rows []kv
	var total uint64
	r.Each(func(t relation.Tuple, m int) {
		var key []byte
		for _, v := range t {
			key = v.AppendOrdered(key)
		}
		rows = append(rows, kv{key: key, mult: int64(m)})
		total += uint64(m)
	})
	sort.Slice(rows, func(i, j int) bool { return bytes.Compare(rows[i].key, rows[j].key) < 0 })

	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	w := &countingWriter{w: f}
	if _, err := w.Write(segMagic[:]); err != nil {
		return err
	}

	type blockMeta struct {
		off      uint64
		length   uint32
		firstKey []byte
	}
	var blocks []blockMeta
	var cur []byte
	var curFirst []byte
	flush := func() error {
		if len(cur) == 0 {
			return nil
		}
		blocks = append(blocks, blockMeta{off: w.n, length: uint32(len(cur)), firstKey: curFirst})
		if _, err := w.Write(cur); err != nil {
			return err
		}
		cur, curFirst = nil, nil
		return nil
	}
	for _, e := range rows {
		if len(cur) == 0 {
			curFirst = e.key
		}
		cur = appendUvarint(cur, uint64(len(e.key)))
		cur = append(cur, e.key...)
		cur = appendUvarint(cur, uint64(e.mult))
		if len(cur) >= segBlockSize {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}

	indexOff := w.n
	idx := appendString(nil, r.Name())
	idx = appendStrings(idx, r.Attrs())
	idx = appendUvarint(idx, total)
	idx = appendUvarint(idx, uint64(len(blocks)))
	for _, b := range blocks {
		idx = appendUvarint(idx, b.off)
		idx = appendUvarint(idx, uint64(b.length))
		idx = appendUvarint(idx, uint64(len(b.firstKey)))
		idx = append(idx, b.firstKey...)
	}
	if _, err := w.Write(idx); err != nil {
		return err
	}
	var footer [segFooterSize]byte
	binary.BigEndian.PutUint64(footer[0:8], indexOff)
	binary.BigEndian.PutUint32(footer[8:12], crc32.ChecksumIEEE(idx))
	copy(footer[12:], segMagic[:])
	if _, err := w.Write(footer[:]); err != nil {
		return err
	}
	return f.Sync()
}

type countingWriter struct {
	w io.Writer
	n uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += uint64(n)
	return n, err
}

// segment is an open, immutable segment file: the block index lives in
// memory, data blocks are read on demand through the block cache.
type segment struct {
	f     *os.File
	id    uint64
	name  string
	attrs []string
	rows  uint64
	offs  []uint64
	lens  []uint32
	cache *BlockCache
}

// openSegment maps a segment file: it validates the footer, loads the
// block index, and leaves the file open for block reads.
func openSegment(path string, id uint64, cache *BlockCache) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < int64(len(segMagic)+segFooterSize) {
		f.Close()
		return nil, fmt.Errorf("%w: segment %s too short", ErrCorrupt, path)
	}
	var footer [segFooterSize]byte
	if _, err := f.ReadAt(footer[:], st.Size()-segFooterSize); err != nil {
		f.Close()
		return nil, err
	}
	if !bytes.Equal(footer[12:], segMagic[:]) {
		f.Close()
		return nil, fmt.Errorf("%w: segment %s bad footer magic", ErrCorrupt, path)
	}
	indexOff := binary.BigEndian.Uint64(footer[0:8])
	indexEnd := uint64(st.Size()) - segFooterSize
	if indexOff < uint64(len(segMagic)) || indexOff > indexEnd {
		f.Close()
		return nil, fmt.Errorf("%w: segment %s bad index offset", ErrCorrupt, path)
	}
	idx := make([]byte, indexEnd-indexOff)
	if _, err := f.ReadAt(idx, int64(indexOff)); err != nil {
		f.Close()
		return nil, err
	}
	if crc32.ChecksumIEEE(idx) != binary.BigEndian.Uint32(footer[8:12]) {
		f.Close()
		return nil, fmt.Errorf("%w: segment %s index checksum mismatch", ErrCorrupt, path)
	}
	s := &segment{f: f, id: id, cache: cache}
	rest := idx
	if s.name, rest, err = takeString(rest); err == nil {
		if s.attrs, rest, err = takeStrings(rest); err == nil {
			if s.rows, rest, err = takeUvarint(rest); err == nil {
				var nb uint64
				if nb, rest, err = takeUvarint(rest); err == nil {
					s.offs = make([]uint64, nb)
					s.lens = make([]uint32, nb)
					for i := uint64(0); i < nb && err == nil; i++ {
						var v, kl uint64
						if s.offs[i], rest, err = takeUvarint(rest); err != nil {
							break
						}
						if v, rest, err = takeUvarint(rest); err != nil {
							break
						}
						s.lens[i] = uint32(v)
						if kl, rest, err = takeUvarint(rest); err != nil {
							break
						}
						if kl > uint64(len(rest)) {
							err = fmt.Errorf("%w: index key overruns", ErrCorrupt)
							break
						}
						rest = rest[kl:] // the block's first key
					}
				}
			}
		}
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: segment %s index: %v", ErrCorrupt, path, err)
	}
	return s, nil
}

func (s *segment) close() error { return s.f.Close() }

// block returns the decoded entries of block i, via the cache.
func (s *segment) block(i int) ([]segEntry, error) {
	if ents, ok := s.cache.get(s.id, i); ok {
		return ents, nil
	}
	raw := make([]byte, s.lens[i])
	if _, err := s.f.ReadAt(raw, int64(s.offs[i])); err != nil {
		return nil, err
	}
	var ents []segEntry
	rest := raw
	for len(rest) > 0 {
		kl, r2, err := takeUvarint(rest)
		if err != nil {
			return nil, err
		}
		if kl > uint64(len(r2)) {
			return nil, fmt.Errorf("%w: block entry key overruns", ErrCorrupt)
		}
		key := r2[:kl:kl]
		tup, kr, err := decodeKeyTuple(key, len(s.attrs))
		if err != nil {
			return nil, err
		}
		if len(kr) != 0 {
			return nil, fmt.Errorf("%w: trailing key bytes", ErrCorrupt)
		}
		mult, r3, err := takeUvarint(r2[kl:])
		if err != nil {
			return nil, err
		}
		ents = append(ents, segEntry{tup: tup, mult: int64(mult)})
		rest = r3
	}
	s.cache.put(s.id, i, ents, len(raw))
	return ents, nil
}

// decodeKeyTuple decodes arity ordered values from key bytes.
func decodeKeyTuple(key []byte, arity int) (relation.Tuple, []byte, error) {
	t := make(relation.Tuple, arity)
	rest := key
	var err error
	for i := 0; i < arity; i++ {
		t[i], rest, err = value.DecodeOrdered(rest)
		if err != nil {
			return nil, nil, err
		}
	}
	return t, rest, nil
}

// Relation materializes the whole segment as an in-memory relation —
// the recovery path.
func (s *segment) Relation() (*relation.Relation, error) {
	r := relation.New(s.name, s.attrs...)
	for i := range s.offs {
		ents, err := s.block(i)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			r.InsertMult(e.tup, int(e.mult))
		}
	}
	return r, nil
}
