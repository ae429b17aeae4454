(* Test data — the malformed-model corpus and its golden snapshots —
   is resolved against the test directory, not the working directory,
   so the suite passes wherever it is launched from. Dune copies the
   corpus into the build tree's test directory, next to the test
   executable, when it builds the suite for running (the [deps] of the
   test stanza: [dune runtest] or [dune build @test/runtest]). *)

let read rel =
  let dir = Filename.dirname Sys.executable_name in
  let ic = open_in_bin (Filename.concat dir rel) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
