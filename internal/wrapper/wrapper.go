// Package wrapper exports relational data as the XML equivalent of paper
// Figure 2: each relation becomes a virtual document whose root (label
// "list") has one child per tuple, labeled with the relation name; a tuple
// element's children are its columns, each a single-leaf element holding the
// column value.
//
// The wrapper "assigns the tuple keys (e.g. XYZ123) to be the oids of the
// corresponding tuple objects — after it precedes them with the &" (Figure 2
// caption). Column elements get deterministic surrogate ids derived from the
// tuple key and column name, so repeated navigations see stable ids.
package wrapper

import (
	"strings"

	"mix/internal/relstore"
	"mix/internal/xtree"
)

// RootID returns the object id of the virtual document exporting relation
// rel of server: "&<server>.<rel>".
func RootID(server, relation string) string {
	return "&" + server + "." + relation
}

// TupleOID derives the object id of a tuple element from its key columns.
// Multi-column keys are joined with '.'; a relation without a declared key
// falls back to the row's ordinal position (surrogate ids, as the paper
// allows).
func TupleOID(s relstore.Schema, row []relstore.Datum, ordinal int) xtree.ID {
	if len(s.Key) == 0 {
		return xtree.ID("&" + s.Relation + "." + itoa(ordinal))
	}
	parts := make([]string, len(s.Key))
	for i, k := range s.Key {
		parts[i] = row[k].String()
	}
	return xtree.ID("&" + strings.Join(parts, "."))
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TupleElem builds the XML tuple object for one row:
//
//	<relation> (id &key)
//	  <col1>v1</col1> <col2>v2</col2> ...
//	</relation>
func TupleElem(s relstore.Schema, row []relstore.Datum, ordinal int) *xtree.Node {
	oid := TupleOID(s, row, ordinal)
	elem := &xtree.Node{ID: oid, Label: s.Relation}
	elem.Children = make([]*xtree.Node, len(s.Columns))
	for i, col := range s.Columns {
		elem.Children[i] = &xtree.Node{
			ID:    oid + xtree.ID("."+col.Name),
			Label: col.Name,
			Children: []*xtree.Node{
				{Label: row[i].String()},
			},
		}
	}
	return elem
}

// Doc materializes the whole virtual document for a relation — the paper's
// Figure 2 picture. The engine never calls this on the hot path (it pulls
// tuples lazily); it exists for golden tests, the eager baseline, and
// exporting XML snapshots.
func Doc(db *relstore.DB, relation string) (*xtree.Node, bool) {
	t, ok := db.Table(relation)
	if !ok {
		return nil, false
	}
	root := &xtree.Node{ID: xtree.ID(RootID(db.Name, relation)), Label: "list"}
	rows := t.Rows()
	root.Children = make([]*xtree.Node, len(rows))
	for i, row := range rows {
		root.Children[i] = TupleElem(t.Schema, row, i)
	}
	return root, true
}
