package perfdiff

// DecodeAuto hands FuzzReadAuto the decoder behind ReadAuto, so the fuzzer
// does not spend most of each input writing it to a file.
var DecodeAuto = decodeAuto
