# Runs fastcons_bench --all --smoke under the sampler, resolves the samples
# and fails unless a fastcons:: function is among the top ten.
#
#   cmake -DBENCH=<fastcons_bench> -DSAMPLER=<libfastcons_sampler.so>
#         -DPYTHON=<python3> -DRESOLVE=<resolve.py> -DOUT=<scratch dir>
#         -P profile_smoke.cmake
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env
          "FASTCONS_SAMPLES=${OUT}/samples.txt" "LD_PRELOAD=${SAMPLER}"
          "${BENCH}" --all --smoke --quiet --out "${OUT}/bench"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fastcons_bench under the sampler exited ${rc}")
endif()
execute_process(
  COMMAND "${PYTHON}" "${RESOLVE}" "${OUT}/samples.txt" --top 10
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE listing)
message("${listing}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resolve.py exited ${rc}")
endif()
if(NOT listing MATCHES "fastcons::")
  message(FATAL_ERROR "no fastcons:: function among the top ten")
endif()
