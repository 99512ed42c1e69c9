package gbwt

// BuildReference is buildReference for the tests that need a workload: they
// live in package gbwt_test, since the workload generator imports gbwt.
var BuildReference = buildReference
