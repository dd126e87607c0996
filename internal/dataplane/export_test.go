package dataplane

// Test-only exports for the external tests in package dataplane_test.
var (
	LabEngine     = labEngine
	DeliveredKeys = deliveredKeys
)
