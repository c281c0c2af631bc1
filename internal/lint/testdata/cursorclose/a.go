// Package a exercises the cursorclose check: cursor-shaped values (a
// parameterless Close method) obtained from Open/OpenAhead/Compile sites.
package a

import "errors"

type Cursor struct{ closed bool }

func (c *Cursor) Next() (int, bool, error) { return 0, false, nil }
func (c *Cursor) Close()                   { c.closed = true }

type Doc struct{}

// ScanOpts mirrors source.ScanOpts: the one Open takes the scan description.
type ScanOpts struct{}

func (d *Doc) Open(opts ScanOpts) (*Cursor, error) { return &Cursor{}, nil }
func (d *Doc) OpenAhead(depth int) *Cursor         { return &Cursor{} }
func Compile(plan string) (*Cursor, error)         { return &Cursor{}, nil }
func consume(c *Cursor)                            { c.Close() }
func check() error                                 { return errors.New("x") }

func neverClosed(d *Doc) {
	cur, err := d.Open(ScanOpts{}) // want "cur returned by Open is never closed"
	if err != nil {
		return
	}
	cur.Next()
}

func leakOnEarlyReturn(d *Doc) error {
	cur, err := d.Open(ScanOpts{})
	if err != nil {
		return err // fine: cur is invalid on the creation's error path
	}
	if err := check(); err != nil {
		return err // want "cur returned by Open is not closed on this return path"
	}
	defer cur.Close()
	cur.Next()
	return nil
}

func discarded(plan string) {
	_, _ = Compile(plan) // want "result of Compile has a Close method but is discarded"
}

func closedProperly(d *Doc) error {
	cur, err := d.Open(ScanOpts{})
	if err != nil {
		return err
	}
	defer cur.Close()
	cur.Next()
	return nil
}

func returned(d *Doc) (*Cursor, error) {
	cur, err := d.Open(ScanOpts{})
	if err != nil {
		return nil, err
	}
	return cur, nil
}

func passedAway(d *Doc) {
	cur := d.OpenAhead(2)
	consume(cur)
}

func capturedByCleanup(d *Doc, cleanup *[]func()) {
	cur := d.OpenAhead(1)
	*cleanup = append(*cleanup, func() { cur.Close() })
}

func closedOnBothBranches(d *Doc, deep bool) {
	cur := d.OpenAhead(1)
	if deep {
		cur.Close()
		return
	}
	cur.Close()
}

// ExecRel sites (the catalog's result-cache-routed SQL entry point) are
// tracked like Open: a replay or fill cursor left unclosed leaks its
// buffered rows and, on the miss path, the underlying store cursor.
type Catalog struct{}

func (c *Catalog) ExecRel(db, sql string) (*Cursor, error) { return &Cursor{}, nil }

func execRelNeverClosed(c *Catalog) {
	cur, err := c.ExecRel("db", "SELECT") // want "cur returned by ExecRel is never closed"
	if err != nil {
		return
	}
	cur.Next()
}

func execRelLeakOnEarlyReturn(c *Catalog) error {
	cur, err := c.ExecRel("db", "SELECT")
	if err != nil {
		return err // fine: cur is invalid on the creation's error path
	}
	if err := check(); err != nil {
		return err // want "cur returned by ExecRel is not closed on this return path"
	}
	defer cur.Close()
	cur.Next()
	return nil
}

func execRelClosedProperly(c *Catalog) error {
	cur, err := c.ExecRel("db", "SELECT")
	if err != nil {
		return err
	}
	defer cur.Close()
	cur.Next()
	return nil
}
