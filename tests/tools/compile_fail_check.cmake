# Compile-must-fail check for the Status/Result compiler gate.
#
#   cmake -DCOMPILER=c++ "-DFLAGS=<compile flags>" -DSOURCE=<file.cc>
#         -DEXPECT_ERRORS=<file:line>,... [-DEXPECT_CALLEES=<file:line>,...]
#         -P compile_fail_check.cmake
#
# Compiles SOURCE with FLAGS (syntax only) and passes only when compilation
# fails, every error is an unused-result error, and the errors sit on exactly
# the EXPECT_ERRORS lines. With EXPECT_CALLEES, the declarations GCC names in
# each error's "in call to ..., declared here" note must be exactly those
# lines too. Sites are compared as <file basename>:<line>.

separate_arguments(flags UNIX_COMMAND "${FLAGS}")
execute_process(
  COMMAND ${COMPILER} ${flags} -fsyntax-only ${SOURCE}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
if(rc EQUAL 0)
  message(FATAL_ERROR "${SOURCE} compiled cleanly; expected unused-result "
                      "errors at ${EXPECT_ERRORS}")
endif()

# One CMake list element per output line: neutralize the characters CMake
# treats as list syntax before splitting on newlines.
string(REPLACE ";" "," out "${out}")
string(REPLACE "[" "(" out "${out}")
string(REPLACE "]" ")" out "${out}")
string(REPLACE "\n" ";" lines "${out}")

set(errors "")
set(callees "")
set(others "")
set(awaiting_callee FALSE)
foreach(line IN LISTS lines)
  if(line MATCHES "^([^:]+):([0-9]+):[0-9]+: error: .*unused-result")
    get_filename_component(file "${CMAKE_MATCH_1}" NAME)
    list(APPEND errors "${file}:${CMAKE_MATCH_2}")
    set(awaiting_callee TRUE)
  elseif(line MATCHES "error: ")
    # Any other error (a missing include, a bad flag) fails for the wrong
    # reason.
    list(APPEND others "${line}")
    set(awaiting_callee FALSE)
  elseif(awaiting_callee AND
         line MATCHES "^([^:]+):([0-9]+):[0-9]+: note: in call to .*declared here")
    get_filename_component(file "${CMAKE_MATCH_1}" NAME)
    list(APPEND callees "${file}:${CMAKE_MATCH_2}")
    set(awaiting_callee FALSE)
  endif()
endforeach()

if(others)
  message(FATAL_ERROR "errors other than unused-result:\n${others}\n"
                      "full output:\n${out}")
endif()

function(expect_sites what actual expected_csv)
  string(REPLACE "," ";" expected "${expected_csv}")
  list(SORT expected)
  list(REMOVE_DUPLICATES actual)
  list(SORT actual)
  if(NOT "${actual}" STREQUAL "${expected}")
    message(FATAL_ERROR "${what}: expected ${expected}, got ${actual}")
  endif()
endfunction()

expect_sites("unused-result error sites" "${errors}" "${EXPECT_ERRORS}")
if(DEFINED EXPECT_CALLEES)
  expect_sites("declarations of the dropped calls" "${callees}"
               "${EXPECT_CALLEES}")
endif()
message(STATUS "${SOURCE}: rejected at ${errors}")
