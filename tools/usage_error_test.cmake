# ctest check: a `sdbsim faults` run with one malformed --fault operand must
# be refused as a usage error: exit code 2 and one `sdbsim:` line on stderr.
# Invoked as:
#   cmake -DSDBSIM=<sdbsim> -DFAULT=<fault spec> -P usage_error_test.cmake
execute_process(
  COMMAND ${SDBSIM} faults --battery fast:3000 --load-watts 1 --hours 0.01 --tick 5
          --fault ${FAULT}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "sdbsim faults --fault ${FAULT} exited ${rc}, want 2")
endif()
if(NOT err MATCHES "^sdbsim: ")
  message(FATAL_ERROR "sdbsim faults --fault ${FAULT} printed '${err}', want an sdbsim: line")
endif()
