# Runs fastcons_bench --all --smoke at --jobs 1 and at --jobs 2 and fails
# unless each run's DIGESTS.txt equals the committed golden file byte for
# byte: the behavioural contract of every scenario family.
#
#   cmake -DBENCH=<fastcons_bench> -DGOLDEN=<smoke-digests.golden>
#         -DOUT=<scratch dir> -P golden_digests.cmake
foreach(jobs 1 2)
  set(out "${OUT}/jobs${jobs}")
  file(REMOVE_RECURSE "${out}")
  execute_process(
    COMMAND "${BENCH}" --all --smoke --quiet --jobs ${jobs} --out "${out}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fastcons_bench --jobs ${jobs} exited ${rc}")
  endif()
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${out}/DIGESTS.txt"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR
      "--jobs ${jobs}: ${out}/DIGESTS.txt differs from ${GOLDEN}")
  endif()
endforeach()
