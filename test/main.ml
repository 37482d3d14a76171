(* The whole test battery.  Suites are grouped per module family; see
   DESIGN.md's experiment index for which paper artefact each covers. *)
let () =
  Alcotest.run "strdb"
    (Test_util.suites @ Test_memo.suites @ Test_pool.suites @ Test_automata.suites
   @ Test_alignment.suites
   @ Test_fsa.suites @ Test_runtime.suites @ Test_optimize.suites
   @ Test_product.suites
   @ Test_compile.suites
   @ Test_decompile.suites
   @ Test_formula.suites @ Test_limitation.suites @ Test_algebra.suites
   @ Test_safety.suites @ Test_encodings.suites @ Test_temporal.suites
   @ Test_workload.suites @ Test_store.suites @ Test_queries.suites
   @ Test_sparser.suites
   @ Test_qcheck.suites @ Test_table.suites @ Test_plan.suites @ Test_server.suites)
