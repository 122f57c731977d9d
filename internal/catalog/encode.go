package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/expr"
	"repro/internal/id"
	"repro/internal/record"
)

// ErrCorrupt reports an undecodable catalog blob.
var ErrCorrupt = errors.New("catalog: corrupt encoding")

// encodingVersion 2 appends the named-column fields (aggregate output names,
// group-by/project name lists) after each view's version-1 fields; Decode
// still accepts version-1 blobs, deriving the names from the source schema.
const encodingVersion = 2

// Encode serializes the whole catalog for the snapshot.
func (c *Catalog) Encode() []byte {
	var b []byte
	b = append(b, encodingVersion)
	b = binary.AppendUvarint(b, uint64(c.nextTree))

	b = binary.AppendUvarint(b, uint64(len(c.tableList)))
	for _, t := range c.tableList {
		b = putString(b, t.Name)
		b = binary.AppendUvarint(b, uint64(t.ID))
		b = binary.AppendUvarint(b, uint64(len(t.Cols)))
		for _, col := range t.Cols {
			b = putString(b, col.Name)
			b = append(b, byte(col.Kind))
		}
		b = putInts(b, t.PK)
	}

	b = binary.AppendUvarint(b, uint64(len(c.indexList)))
	for _, ix := range c.indexList {
		b = putString(b, ix.Name)
		b = binary.AppendUvarint(b, uint64(ix.ID))
		b = putString(b, ix.Table)
		b = putInts(b, ix.Cols)
		b = putBool(b, ix.Unique)
	}

	b = binary.AppendUvarint(b, uint64(len(c.viewList)))
	for _, v := range c.viewList {
		b = putString(b, v.Name)
		b = binary.AppendUvarint(b, uint64(v.ID))
		b = append(b, byte(v.Kind), byte(v.Strategy))
		b = putString(b, v.Left)
		b = putString(b, v.Right)
		b = binary.AppendUvarint(b, uint64(v.JoinLeftCol))
		b = binary.AppendUvarint(b, uint64(v.JoinRightCol))
		b = putBytes(b, expr.Marshal(v.Where))
		b = putInts(b, v.ProjectCols)
		b = putInts(b, v.GroupByCols)
		b = binary.AppendUvarint(b, uint64(len(v.Aggs)))
		for _, a := range v.Aggs {
			b = append(b, byte(a.Func))
			b = putBytes(b, expr.Marshal(a.Arg))
			b = putString(b, a.Name)
		}
		b = putStrings(b, v.Project)
		b = putStrings(b, v.GroupBy)
	}
	return b
}

// Decode rebuilds a catalog from an Encode blob (version 1 or 2).
func Decode(b []byte) (*Catalog, error) {
	d := &decoder{buf: b}
	ver := d.byte_()
	if ver != 1 && ver != encodingVersion {
		return nil, fmt.Errorf("%w: version %d", ErrCorrupt, ver)
	}
	c := New()
	c.nextTree = id.Tree(d.uvarint())

	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		t := &Table{Name: d.string_(), ID: id.Tree(d.uvarint())}
		for nc := d.uvarint(); nc > 0 && d.err == nil; nc-- {
			t.Cols = append(t.Cols, Column{Name: d.string_(), Kind: record.Kind(d.byte_())})
		}
		t.PK = d.ints()
		c.tables[t.Name] = t
	}
	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		ix := &Index{Name: d.string_(), ID: id.Tree(d.uvarint()), Table: d.string_()}
		ix.Cols = d.ints()
		ix.Unique = d.bool_()
		c.indexes[ix.Name] = ix
	}
	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		v := &View{Name: d.string_(), ID: id.Tree(d.uvarint())}
		v.Kind = ViewKind(d.byte_())
		v.Strategy = Strategy(d.byte_())
		v.Left = d.string_()
		v.Right = d.string_()
		v.JoinLeftCol = int(d.uvarint())
		v.JoinRightCol = int(d.uvarint())
		where, err := expr.Unmarshal(d.bytes_())
		if err != nil {
			return nil, fmt.Errorf("%w: view %q where: %v", ErrCorrupt, v.Name, err)
		}
		v.Where = where
		v.ProjectCols = d.ints()
		v.GroupByCols = d.ints()
		for na := d.uvarint(); na > 0 && d.err == nil; na-- {
			a := expr.AggSpec{Func: expr.AggFunc(d.byte_())}
			arg, err := expr.Unmarshal(d.bytes_())
			if err != nil {
				return nil, fmt.Errorf("%w: view %q agg: %v", ErrCorrupt, v.Name, err)
			}
			a.Arg = arg
			if ver >= 2 {
				a.Name = d.string_()
			}
			v.Aggs = append(v.Aggs, a)
		}
		if ver >= 2 {
			v.Project = d.strings_()
			v.GroupBy = d.strings_()
		}
		c.views[v.Name] = v
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf))
	}
	if err := c.finishViews(); err != nil {
		return nil, err
	}
	c.derive()
	return c, nil
}

// finishViews recomputes the derived DAG fields (Source alias, level) after
// decoding, with a defensive cycle check: AddView cannot create a cycle (a
// view only ever references relations that already exist), but a corrupt
// blob could, and the schema derivation recurses on the source chain.
func (c *Catalog) finishViews() error {
	for _, v := range c.views {
		v.Source = v.Left
		lvl := 0
		for cur := v; ; lvl++ {
			p, ok := c.views[cur.Left]
			if !ok {
				break
			}
			if lvl > len(c.views) {
				return fmt.Errorf("%w: view source cycle through %q", ErrCorrupt, v.Name)
			}
			cur = p
		}
		v.level = lvl
	}
	return nil
}

func putString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func putBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func putBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func putStrings(b []byte, xs []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = putString(b, x)
	}
	return b
}

func putInts(b []byte, xs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

// decoder is a cursor with sticky errors.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

func (d *decoder) byte_() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) bool_() bool { return d.byte_() != 0 }

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) string_() string { return string(d.bytes_()) }

func (d *decoder) bytes_() []byte {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.buf)) {
		d.fail()
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) strings_() []string {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.buf))+1 {
		d.fail()
		return nil
	}
	var out []string
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, d.string_())
	}
	return out
}

func (d *decoder) ints() []int {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.buf))+1 {
		d.fail()
		return nil
	}
	var out []int
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, int(d.varint()))
	}
	return out
}
