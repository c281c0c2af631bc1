package engine

import "mix/internal/xmas"

// Parallel execution has no operator bodies of its own: under Parallelism > 1
// the batch joins, the semi-join and cat run exactly as they do sequentially,
// with their probe (kept) input opened through an exchange. The probe side
// then prefetches up to ExchangeBuffer tuples while the consumer drains the
// build side — which starts once the first probe row exists, preserving
// empty-left laziness, and no later, whatever batch size the join's own
// consumer asks for — so a join over two federated sources pays max() of
// their latencies instead of their sum. Output order is the
// sequential order, so results stay byte-identical at every parallelism
// level.

// asyncSide reports whether a join input is worth running on a producer
// goroutine: it must actually touch a source (otherwise there is no latency
// to hide, only goroutine overhead) and must not read an enclosing apply's
// partition state, whose memoizing lazy lists belong to the consumer.
func asyncSide(op xmas.Op) bool {
	return xmas.TouchesSource(op) && !xmas.ReadsPartition(op)
}

// openSide instantiates an operator input: through an exchange when the
// execution is parallel and asyncSide chose the side at compile time, on the
// consumer otherwise.
func openSide(ctx *Ctx, side compiledOp, async bool) Cursor {
	if async && ctx.exec.parallel() {
		return startExchange(ctx.exec, func() Cursor { return side(ctx) })
	}
	return side(ctx)
}
