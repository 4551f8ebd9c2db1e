package mpi

// SetPoolStrict sets the poolStrict hook for tests outside the package
// (strict_ext_test.go drives jobs that internal/experiments owns) and returns
// what it was.
func SetPoolStrict(on bool) (was bool) {
	was, poolStrict = poolStrict, on
	return was
}
