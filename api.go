package mix

import (
	"mix/internal/engine"
	"mix/internal/qdom"
	"mix/internal/relstore"
	"mix/internal/xmlio"
	"mix/internal/xtree"
)

// Re-exports so downstream users program against the mix package alone.

// Document is a virtual answer document: children materialize as navigation
// reaches them.
type Document = qdom.Document

// Node is one vertex of a virtual document, supporting the QDOM commands
// Down (d), Right (r), Label (fl), Value (fv); in-place queries go through
// Mediator.QueryFrom.
type Node = qdom.Node

// DB is an in-memory relational source.
type DB = relstore.DB

// Schema describes a relation of a relational source.
type Schema = relstore.Schema

// Column describes one attribute of a relation.
type Column = relstore.Column

// Datum is one typed relational value.
type Datum = relstore.Datum

// Stats snapshots a source's transfer counters.
type Stats = relstore.Stats

// Tree is a labeled ordered tree (the materialized form of XML data).
type Tree = xtree.Node

// Metrics counts per-operator mediator work during one execution (see
// Plan.RunWithMetrics).
type Metrics = engine.Metrics

// Column type constants.
const (
	TInt    = relstore.TInt
	TFloat  = relstore.TFloat
	TString = relstore.TString
)

// NewDB creates an empty relational source named name.
func NewDB(name string) *DB { return relstore.NewDB(name) }

// Int, Float and Str build relational values.
func Int(v int64) Datum     { return relstore.Int(v) }
func Float(v float64) Datum { return relstore.Float(v) }
func Str(v string) Datum    { return relstore.Str(v) }

// ParseXML parses an XML document into a tree (for AddXMLDocument or
// inspection).
func ParseXML(input string) (*Tree, error) { return xmlio.Parse(input) }

// SerializeXML renders a tree back to XML text.
func SerializeXML(t *Tree) string { return xmlio.SerializeIndent(t) }
