package core

// Test-only access to the reference switches for the external core_test
// package: each returns opts with one engine layer turned back into its
// reference form (see Options.disableIncrementalClosure and its
// siblings). EnumerateReference turns all four at once.

func ReferenceClosure(opts Options) Options {
	opts.disableIncrementalClosure = true
	return opts
}

func NoPrefixPrune(opts Options) Options {
	opts.disablePrefixPrune = true
	return opts
}

func DeepCopyForks(opts Options) Options {
	opts.disableCOW = true
	return opts
}

func NoSymmetry(opts Options) Options {
	opts.disableSymmetry = true
	return opts
}
