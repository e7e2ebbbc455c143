# ctest check: a sweep's --flight-out bundle must hold the same journal
# events at --jobs 1 (shards inline) and --jobs 4 (shards on workers). Eight
# runs make two shards, so --jobs 4 does start workers.
# Invoked as:
#   cmake -DSDBSIM=<sdbsim> -DOUT=<scratch dir prefix> -P sweep_flight_jobs_test.cmake
foreach(jobs 1 4)
  file(REMOVE_RECURSE "${OUT}_jobs${jobs}")
  execute_process(
    COMMAND ${SDBSIM} sweep --battery watch:200 --battery bendable:200
            --load-watts 0.3 --hours 6 --tick 10 --runs 8 --jobs ${jobs}
            --flight-out "${OUT}_jobs${jobs}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sdbsim sweep --jobs ${jobs} --flight-out failed (rc=${rc})")
  endif()
endforeach()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${OUT}_jobs1/events.jsonl" "${OUT}_jobs4/events.jsonl"
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "sweep bundle events.jsonl differs between --jobs 1 and --jobs 4")
endif()
