package obs

// I/O error accounting. The storage layers (WAL, pager, COW tree) report
// every failed disk operation here, keyed by operation and errno class —
// the classes mirror vfs.ErrClass ("enospc", "eio", "crash", "other").
// The registry has no label support, so the (op, class) grid is
// pre-registered as one counter per cell; /metrics renders them all.

var ioErrOps = []string{"open", "read", "write", "sync", "truncate", "remove"}

var ioErrClasses = []string{"enospc", "eio", "crash", "other"}

var ioErrors = func() map[[2]string]*Counter {
	m := make(map[[2]string]*Counter, len(ioErrOps)*len(ioErrClasses))
	for _, op := range ioErrOps {
		for _, class := range ioErrClasses {
			m[[2]string{op, class}] = NewCounter(
				"immortaldb_io_errors_"+op+"_"+class+"_total",
				"Failed "+op+" operations with errno class "+class+".")
		}
	}
	return m
}()

// IOError counts one failed I/O operation. Unknown ops or classes fold into
// the "other" cell so no failure ever goes uncounted.
func IOError(op, class string) {
	c := ioErrors[[2]string{op, class}]
	if c == nil {
		if c = ioErrors[[2]string{op, "other"}]; c == nil {
			c = ioErrors[[2]string{"write", "other"}]
		}
	}
	c.Inc()
}
