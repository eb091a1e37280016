//go:build dedupcheck

package storeatomicity

func init() { dedupcheckBuild = true }
