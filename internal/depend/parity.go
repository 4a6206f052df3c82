package depend

// Parity error formats shared by the legacy (structure.go, cutsets.go) and
// compiled (compile.go) kernels. The two implementations promise
// bit-identical behaviour *including error messages* — pinned by the
// equivalence property tests and enforced statically by the upsimvet
// errparity rule: a format string used by both kernels must be a single
// constant, so editing one side without the other is impossible rather than
// merely test-detectable.
const (
	errFmtNoAvailability    = "depend: no availability for component %q"
	errFmtAtomicService     = "depend: atomic service %q: %w"
	errFmtMonteCarloSamples = "depend: MonteCarlo needs at least 1 sample, got %d"
	errFmtForcedNotInStruct = "depend: forced component %q not in structure"
)
