// Package sxe implements the Synthetic eXecutable format: a binary
// container for programs of the synthetic ISA, standing in for the
// Alpha/NT PE executables Spike reads and writes.
//
// Like a post-link image, an SXE file carries everything the optimizer
// needs and nothing it must reconstruct from source: the code of every
// routine, the symbol table (routine names and entry points), and the
// jump tables the loader extracts for multiway branches (§3.5).
//
// Layout (all integers little-endian):
//
//	magic     "SXE2"             4 bytes
//	entry     uvarint            entry routine index
//	data      uvarint count + varint words (the data segment: packed
//	          jump tables, see prog.PackTables)
//	nroutines uvarint
//	per routine:
//	  name      uvarint length + bytes
//	  flags     uvarint           bit 0: address taken
//	  entries   uvarint count + uvarint each
//	  tables    uvarint count + (uvarint len + uvarint targets…) each
//	  tbloffs   uvarint count + uvarint data offsets (for §3.5 extraction)
//	  code      uvarint count + instruction records
//	checksum  uint32 (FNV-1a of everything before it)
//
// Instruction record:
//
//	op    1 byte
//	dest, src1, src2   1 byte each
//	imm   varint (zig-zag)
//	target uvarint
//	table  varint (UnknownTable is -1)
//	use, def, kill  uvarint (only present for pseudo-ops)
package sxe

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/regset"
)

// Magic identifies SXE images.
var Magic = [4]byte{'S', 'X', 'E', '2'}

// ErrBadMagic is returned when the input does not start with the SXE
// magic number.
var ErrBadMagic = errors.New("sxe: bad magic")

// ErrChecksum is returned when the image fails checksum verification.
var ErrChecksum = errors.New("sxe: checksum mismatch")

const flagAddressTaken = 1

// Encode serializes the program. The data segment and each routine's
// table offsets are derived canonically from the in-memory jump tables
// (prog.PackTables semantics), so code transformations never leave a
// stale packed form behind. The returned image's capacity equals its
// length: callers hold images for as long as the program lives.
func Encode(p *prog.Program) ([]byte, error) {
	img, err := EncodeImage(p)
	if err != nil {
		return nil, err
	}
	return img.Bytes, nil
}

// Image is a program's canonical encoding together with the layout
// Splice needs to encode an edit of that program without re-encoding
// what the edit left alone.
type Image struct {
	// Bytes is the encoding, exactly as Encode returns it.
	Bytes []byte

	routines []*prog.Routine // the encoded program's routines, by pointer
	recs     []int           // recs[i]: where routine i's record starts; recs[n]: the checksum
	offs     []int           // offs[i]: the data-segment offset of routine i's first table
}

// EncodeImage is Encode, keeping the layout of the image it returns.
func EncodeImage(p *prog.Program) (*Image, error) {
	if err := p.Validate(); err != nil {
		return nil, invalid(err)
	}
	img := newImage(p)
	buf := appendHeader(make([]byte, 0, estimateSize(p)), p)
	for ri, r := range p.Routines {
		img.recs[ri] = len(buf)
		buf = appendRecord(buf, r, img.offs[ri])
	}
	img.recs[len(p.Routines)] = len(buf)
	// Copy out once: the image keeps no spare capacity from the estimate.
	img.Bytes = seal(append(make([]byte, 0, len(buf)+4), buf...))
	return img, nil
}

// Splice encodes p, an edit of the image's program, and returns the
// same bytes and layout EncodeImage(p) would. An edit replaces routines
// by pointer and leaves the others shared ("clone on edit", as
// prog.Program.ShallowClone gives): the record of a shared routine is
// copied from the image unless its tables moved in the data segment,
// and every other record, the header and the checksum are encoded
// afresh. p is validated as far as an edit can break it, and an invalid
// p is refused with the error Encode gives. A p whose routine count
// differs from the image's is encoded from scratch.
func (img *Image) Splice(p *prog.Program) (*Image, error) {
	n := len(img.routines)
	if len(p.Routines) != n {
		return EncodeImage(p)
	}
	if err := img.validateEdit(p); err != nil {
		return nil, err
	}
	out := newImage(p)
	// First pass: encode the header and each record that cannot be
	// copied into fresh, back to back, leaving each such record's end
	// in out.recs, and size the image.
	fresh := appendHeader(nil, p)
	header := len(fresh)
	size := header + 4
	for ri, r := range p.Routines {
		if img.reusable(ri, r, out.offs[ri]) {
			size += img.recs[ri+1] - img.recs[ri]
			continue
		}
		start := len(fresh)
		fresh = appendRecord(fresh, r, out.offs[ri])
		out.recs[ri] = len(fresh)
		size += len(fresh) - start
	}
	// Second pass: lay the records out in routine order.
	buf := append(make([]byte, 0, size), fresh[:header]...)
	next := header // the first fresh record not yet laid out
	for ri, r := range p.Routines {
		start := len(buf)
		if img.reusable(ri, r, out.offs[ri]) {
			buf = append(buf, img.Bytes[img.recs[ri]:img.recs[ri+1]]...)
		} else {
			buf = append(buf, fresh[next:out.recs[ri]]...)
			next = out.recs[ri]
		}
		out.recs[ri] = start
	}
	out.recs[n] = len(buf)
	out.Bytes = seal(buf)
	return out, nil
}

// validateEdit checks what an edit of the image's valid program can
// break: the entry index and each replaced routine, or the whole
// program when a replaced routine's entrance count changed, since its
// callers' entry selectors are bounded by that count. It reports the
// violation p.Validate would report first.
func (img *Image) validateEdit(p *prog.Program) error {
	whole := p.Entry < 0 || p.Entry >= len(p.Routines)
	for ri, r := range p.Routines {
		if r != img.routines[ri] && len(r.Entries) != len(img.routines[ri].Entries) {
			whole = true
		}
	}
	if whole {
		if err := p.Validate(); err != nil {
			return invalid(err)
		}
		return nil
	}
	for ri, r := range p.Routines {
		if r != img.routines[ri] {
			if err := p.ValidateRoutine(ri); err != nil {
				return invalid(err)
			}
		}
	}
	return nil
}

// reusable reports whether routine ri's record in the image is the
// record of r at table offset off: r is the routine the image encoded,
// and its table offsets, if it has tables, did not move.
func (img *Image) reusable(ri int, r *prog.Routine, off int) bool {
	return r == img.routines[ri] && (off == img.offs[ri] || len(r.Tables) == 0)
}

// newImage returns p's image layout with every routine's table offset
// filled in and the record bounds left to the encoder.
func newImage(p *prog.Program) *Image {
	n := len(p.Routines)
	img := &Image{
		routines: append([]*prog.Routine(nil), p.Routines...),
		recs:     make([]int, n+1),
		offs:     make([]int, n),
	}
	off := 0
	for ri, r := range p.Routines {
		img.offs[ri] = off
		for _, t := range r.Tables {
			off += 1 + len(t)
		}
	}
	return img
}

func invalid(err error) error {
	return fmt.Errorf("sxe: refusing to encode invalid program: %w", err)
}

// appendHeader appends everything before the first routine record:
// the magic, the entry index, the data segment and the routine count.
func appendHeader(buf []byte, p *prog.Program) []byte {
	buf = append(buf, Magic[:]...)
	buf = binary.AppendUvarint(buf, uint64(p.Entry))
	// The data segment packs every table in routine order as its length
	// followed by its targets' code addresses.
	words := 0
	for _, r := range p.Routines {
		for _, t := range r.Tables {
			words += 1 + len(t)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(words))
	for ri, r := range p.Routines {
		for _, t := range r.Tables {
			buf = binary.AppendVarint(buf, int64(len(t)))
			for _, tgt := range t {
				buf = binary.AppendVarint(buf, prog.CodeAddr(ri, tgt))
			}
		}
	}
	return binary.AppendUvarint(buf, uint64(len(p.Routines)))
}

// appendRecord appends r's routine record; off is the data-segment
// offset of its first table.
func appendRecord(buf []byte, r *prog.Routine, off int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r.Name)))
	buf = append(buf, r.Name...)
	flags := uint64(0)
	if r.AddressTaken {
		flags |= flagAddressTaken
	}
	buf = binary.AppendUvarint(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(r.Entries)))
	for _, e := range r.Entries {
		buf = binary.AppendUvarint(buf, uint64(e))
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.Tables)))
	for _, t := range r.Tables {
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		for _, tgt := range t {
			buf = binary.AppendUvarint(buf, uint64(tgt))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.Tables)))
	for _, t := range r.Tables {
		buf = binary.AppendUvarint(buf, uint64(off))
		off += 1 + len(t)
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.Code)))
	for i := range r.Code {
		buf = appendInstr(buf, &r.Code[i])
	}
	return buf
}

// seal appends the FNV-1a checksum of everything in buf.
func seal(buf []byte) []byte {
	sum := fnv.New32a()
	sum.Write(buf)
	return binary.LittleEndian.AppendUint32(buf, sum.Sum32())
}

// estimateSize returns a buffer size an image of p seldom outgrows. It
// bounds every header and table field by its largest varint; only the
// instruction records are estimated, at 9 bytes each against the 7 a
// record takes at least and the 7.5 to 8.3 the Table 2 profiles average.
func estimateSize(p *prog.Program) int {
	const u32, u64 = binary.MaxVarintLen32, binary.MaxVarintLen64
	n := len(Magic) + 3*u64 + 4
	for _, r := range p.Routines {
		n += len(r.Name) + 6*u32 + u32*len(r.Entries) + 9*len(r.Code)
		for _, t := range r.Tables {
			n += 2*u32 + u64 + (u32+u64)*len(t)
		}
	}
	return n
}

func appendInstr(buf []byte, in *isa.Instr) []byte {
	buf = append(buf, byte(in.Op), byte(in.Dest), byte(in.Src1), byte(in.Src2))
	buf = binary.AppendVarint(buf, in.Imm)
	buf = binary.AppendUvarint(buf, uint64(in.Target))
	buf = binary.AppendVarint(buf, int64(in.Table))
	if in.Op.Format() == isa.FmtSets {
		buf = binary.AppendUvarint(buf, uint64(in.Use))
		buf = binary.AppendUvarint(buf, uint64(in.Def))
		buf = binary.AppendUvarint(buf, uint64(in.Kill))
	}
	return buf
}

// Decode parses an SXE image, verifies its checksum, and validates the
// resulting program.
func Decode(data []byte) (*prog.Program, error) {
	p, _, err := decode(data)
	return p, err
}

// DecodeImage is Decode, also returning the program's image: the bytes
// and layout EncodeImage gives for the decoded program. When data is
// already those bytes — every varint in its shortest form, no flag bit
// but address-taken, one table offset per table, and the data segment
// and table offsets packed as the encoder packs them — the image keeps
// data itself, and the caller must not modify data afterwards. Any
// other input is re-encoded.
func DecodeImage(data []byte) (*prog.Program, *Image, error) {
	p, recs, err := decode(data)
	if err != nil {
		return nil, nil, err
	}
	if recs == nil {
		img, err := EncodeImage(p)
		if err != nil {
			return nil, nil, err
		}
		return p, img, nil
	}
	img := newImage(p)
	img.Bytes, img.recs = data[:len(data):len(data)], recs
	return p, img, nil
}

// decode is Decode. When data is exactly what EncodeImage writes for the
// program, it also returns where each routine's record starts and, last,
// where the checksum does; for any other input recs is nil.
func decode(data []byte) (p *prog.Program, recs []int, err error) {
	if len(data) < len(Magic)+4 {
		return nil, nil, ErrBadMagic
	}
	if !bytes.Equal(data[:4], Magic[:]) {
		return nil, nil, ErrBadMagic
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	sum := fnv.New32a()
	sum.Write(body)
	if binary.LittleEndian.Uint32(tail) != sum.Sum32() {
		return nil, nil, ErrChecksum
	}
	rd := &reader{data: body, pos: 4}
	p = prog.New()
	entry, err := rd.uvarint()
	if err != nil {
		return nil, nil, err
	}
	nd, err := rd.count()
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < nd; i++ {
		w, err := rd.varint()
		if err != nil {
			return nil, nil, err
		}
		p.Data = append(p.Data, w)
	}
	nr, err := rd.count()
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < nr; i++ {
		recs = append(recs, rd.pos)
		r, err := rd.routine()
		if err != nil {
			return nil, nil, fmt.Errorf("sxe: routine %d: %w", i, err)
		}
		if _, dup := p.Index(r.Name); dup {
			return nil, nil, fmt.Errorf("sxe: routine %d: duplicate name %q", i, r.Name)
		}
		p.Add(r)
	}
	if rd.pos != len(body) {
		return nil, nil, fmt.Errorf("sxe: %d trailing bytes", len(body)-rd.pos)
	}
	p.Entry = int(entry)
	if err := extractAndCheckTables(p); err != nil {
		return nil, nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, nil, fmt.Errorf("sxe: decoded program invalid: %w", err)
	}
	if rd.noncanonical || !packedCanonically(p) {
		return p, nil, nil
	}
	return p, append(recs, rd.pos), nil
}

// packedCanonically reports whether p's data segment and table offsets
// are those the encoder derives from its tables: every table packed in
// routine order, each routine carrying one offset per table.
func packedCanonically(p *prog.Program) bool {
	off := 0
	for ri, r := range p.Routines {
		if len(r.TableOffsets) != len(r.Tables) {
			return false
		}
		for ti, t := range r.Tables {
			if r.TableOffsets[ti] != off || off+1+len(t) > len(p.Data) || p.Data[off] != int64(len(t)) {
				return false
			}
			for k, tgt := range t {
				if p.Data[off+1+k] != prog.CodeAddr(ri, tgt) {
					return false
				}
			}
			off += 1 + len(t)
		}
	}
	return off == len(p.Data)
}

// extractAndCheckTables performs the §3.5 jump-table extraction for
// routines whose tables are packed in the data segment, and
// cross-checks the result against the directly encoded tables.
func extractAndCheckTables(p *prog.Program) error {
	var direct [][][]int
	for _, r := range p.Routines {
		tables := make([][]int, len(r.Tables))
		for i, t := range r.Tables {
			tables[i] = append([]int(nil), t...)
		}
		direct = append(direct, tables)
	}
	if err := p.ExtractTables(); err != nil {
		return fmt.Errorf("sxe: jump-table extraction: %w", err)
	}
	for ri, r := range p.Routines {
		if len(r.TableOffsets) == 0 {
			continue
		}
		if len(direct[ri]) != len(r.Tables) {
			return fmt.Errorf("sxe: routine %s: extracted %d tables, image encodes %d",
				r.Name, len(r.Tables), len(direct[ri]))
		}
		for ti := range r.Tables {
			if len(direct[ri][ti]) != len(r.Tables[ti]) {
				return fmt.Errorf("sxe: routine %s: table %d length mismatch after extraction", r.Name, ti)
			}
			for k := range r.Tables[ti] {
				if direct[ri][ti][k] != r.Tables[ti][k] {
					return fmt.Errorf("sxe: routine %s: table %d entry %d mismatch after extraction", r.Name, ti, k)
				}
			}
		}
	}
	return nil
}

// routine reads one routine record.
func (rd *reader) routine() (*prog.Routine, error) {
	nameLen, err := rd.count()
	if err != nil {
		return nil, err
	}
	name, err := rd.bytes(nameLen)
	if err != nil {
		return nil, err
	}
	flags, err := rd.uvarint()
	if err != nil {
		return nil, err
	}
	if flags&^flagAddressTaken != 0 {
		rd.noncanonical = true
	}
	r := &prog.Routine{Name: string(name), AddressTaken: flags&flagAddressTaken != 0}
	ne, err := rd.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < ne; i++ {
		e, err := rd.uvarint()
		if err != nil {
			return nil, err
		}
		r.Entries = append(r.Entries, int(e))
	}
	nt, err := rd.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nt; i++ {
		tlen, err := rd.count()
		if err != nil {
			return nil, err
		}
		table := make([]int, 0, tlen)
		for j := 0; j < tlen; j++ {
			tgt, err := rd.uvarint()
			if err != nil {
				return nil, err
			}
			table = append(table, int(tgt))
		}
		r.Tables = append(r.Tables, table)
	}
	noff, err := rd.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < noff; i++ {
		off, err := rd.uvarint()
		if err != nil {
			return nil, err
		}
		r.TableOffsets = append(r.TableOffsets, int(off))
	}
	nc, err := rd.count()
	if err != nil {
		return nil, err
	}
	// Every instruction record takes at least minInstrBytes, so a forged
	// count cannot make the slice below outgrow the image many times over.
	if nc > (len(rd.data)-rd.pos)/minInstrBytes {
		return nil, errTruncated
	}
	r.Code = make([]isa.Instr, nc)
	for i := range r.Code {
		if err := rd.instr(&r.Code[i]); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// minInstrBytes is the shortest instruction record: four header bytes
// and one byte each for imm, target and table.
const minInstrBytes = 7

// instr reads one instruction record into in. In most records the imm,
// target and table varints take one byte each: those are read here
// without a call, and any longer one goes through uvarint.
func (rd *reader) instr(in *isa.Instr) error {
	d, p := rd.data, rd.pos
	if p+4 > len(d) {
		return errTruncated
	}
	in.Op = isa.Opcode(d[p])
	if !in.Op.Valid() {
		return fmt.Errorf("invalid opcode %d", d[p])
	}
	in.Dest, in.Src1, in.Src2 = regset.Reg(d[p+1]), regset.Reg(d[p+2]), regset.Reg(d[p+3])
	if p+minInstrBytes <= len(d) && d[p+4]|d[p+5]|d[p+6] < 0x80 {
		in.Imm = unzigzag(uint64(d[p+4]))
		in.Target = int(d[p+5])
		in.Table = int(unzigzag(uint64(d[p+6])))
		rd.pos = p + minInstrBytes
	} else {
		rd.pos = p + 4
		imm, err := rd.varint()
		if err != nil {
			return err
		}
		tgt, err := rd.uvarint()
		if err != nil {
			return err
		}
		tbl, err := rd.varint()
		if err != nil {
			return err
		}
		in.Imm, in.Target, in.Table = imm, int(tgt), int(tbl)
	}
	if in.Op.Format() == isa.FmtSets {
		u, err := rd.uvarint()
		if err != nil {
			return err
		}
		d, err := rd.uvarint()
		if err != nil {
			return err
		}
		k, err := rd.uvarint()
		if err != nil {
			return err
		}
		in.Use, in.Def, in.Kill = regset.Set(u), regset.Set(d), regset.Set(k)
	}
	return nil
}

// WriteFile encodes p and writes it to w.
func Write(w io.Writer, p *prog.Program) error {
	data, err := Encode(p)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// Read decodes a program from r.
func Read(r io.Reader) (*prog.Program, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

type reader struct {
	data []byte
	pos  int

	// noncanonical is set by a field the encoder would have written
	// otherwise: a varint longer than its shortest form, or a flag bit
	// other than address-taken.
	noncanonical bool
}

var errTruncated = errors.New("sxe: truncated image")

func (r *reader) bytes(n int) ([]byte, error) {
	if r.pos+n > len(r.data) {
		return nil, errTruncated
	}
	out := r.data[r.pos : r.pos+n]
	r.pos += n
	return out, nil
}

// count reads a uvarint element count and bounds it by the remaining
// bytes (every element occupies at least one byte), so forged counts
// cannot force huge allocations.
func (r *reader) count() (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(r.data)-r.pos) {
		return 0, errTruncated
	}
	return int(n), nil
}

// uvarint reads a uvarint. A uvarint longer than one byte is in its
// shortest form exactly when its last byte is not zero.
func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, errTruncated
	}
	if n > 1 && r.data[r.pos+n-1] == 0 {
		r.noncanonical = true
	}
	r.pos += n
	return v, nil
}

// varint reads a zig-zag varint, as binary.Varint does.
func (r *reader) varint() (int64, error) {
	u, err := r.uvarint()
	return unzigzag(u), err
}

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
