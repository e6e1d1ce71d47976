# Flag-error contract of skysr_cli: an unknown --oracle or --retriever name
# exits 2 and lists the allowed values, before any dataset is read.
#
#   cmake -DCLI=build/skysr_cli -P tests/cli_flags_test.cmake

if(NOT CLI)
  message(FATAL_ERROR "pass -DCLI=<path to skysr_cli>")
endif()

function(expect_flag_error command flag value allowed)
  if(command STREQUAL "query")
    set(args query --data missing-dataset --start 0 --categories A)
  else()
    set(args batch --data missing-dataset --queries missing-workload.txt)
  endif()
  execute_process(COMMAND ${CLI} ${args} ${flag} ${value}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "${command} ${flag} ${value}: exit ${rc}, want 2 (${err})")
  endif()
  string(FIND "${err}" "${allowed}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "${command} ${flag} ${value}: stderr lacks '${allowed}': ${err}")
  endif()
endfunction()

foreach(command query batch)
  expect_flag_error(${command} --oracle alt "(flat|ch)")
  expect_flag_error(${command} --retriever resume "(auto|settle|bucket)")
endforeach()
