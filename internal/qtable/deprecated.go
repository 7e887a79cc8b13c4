package qtable

// DefaultTopK was the eager per-state prefix length of the compiled
// serve-time reader.
//
// Deprecated: the trained Table is the only serve-time reader; nothing
// in this module uses the constant.
const DefaultTopK = 16

// Compile returns t unchanged.
//
// Deprecated: the trained Table is the only serve-time reader; the
// benchmark module's replay still times this call.
func Compile(t *Table, _ int) *Table { return t }

// NewTiered returns t unchanged.
//
// Deprecated: the trained Table is the only serve-time reader; the
// benchmark module's replay still times this call.
func NewTiered(t *Table) *Table { return t }
