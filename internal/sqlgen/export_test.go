package sqlgen

import (
	"mix/internal/source"
	"mix/internal/xmas"
)

// PushUnfolded is Push with the semi-join fold off: each chain is pushed in
// the order the plan gives it.
func PushUnfolded(plan xmas.Op, cat *source.Catalog) (xmas.Op, error) {
	return push(plan, cat, false)
}
