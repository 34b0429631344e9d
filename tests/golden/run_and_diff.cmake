# Golden-figure regression driver, run as a ctest via `cmake -P`:
#
#   cmake -DTOOL=<nomc-campaign> -DSPEC=<x.campaign> -DGOLDEN=<x.jsonl>
#         -DWORK_DIR=<build scratch dir> -P run_and_diff.cmake
#
# Exercises the full crash story on the real tool, then compares the store
# byte-for-byte against the checked-in golden:
#   1. partial parallel run (--point-jobs 2) of all but the golden's last
#      record, so the resume below always recomputes at least one point,
#   2. injected kill: a torn record appended to the store and a torn line
#      appended to the .timing sidecar,
#   3. resume at a different (--jobs, --point-jobs) split.
# Any divergence from the serial-run golden bytes fails the test.

foreach(var TOOL SPEC GOLDEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_and_diff.cmake needs -D${var}=...")
  endif()
endforeach()

get_filename_component(spec_name "${SPEC}" NAME_WE)
set(store "${WORK_DIR}/${spec_name}.jsonl")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(REMOVE "${store}" "${store}.timing")

file(STRINGS "${GOLDEN}" golden_records)
list(LENGTH golden_records record_count)
math(EXPR partial_points "${record_count} - 1")

execute_process(
  COMMAND "${TOOL}" run "${SPEC}" --out "${store}" --overwrite --quiet
          --max-points ${partial_points} --jobs 1 --point-jobs 2
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "partial run of ${spec_name} failed (${status})")
endif()

# Injected kill mid-write: valid prefix + torn tails in both files.
file(APPEND "${store}" "{\"v\":2,\"campaign\":\"${spec_name}\",\"spec_ha")
file(APPEND "${store}.timing" "{\"point\":2,\"wall")

execute_process(
  COMMAND "${TOOL}" resume "${SPEC}" --out "${store}" --quiet
          --jobs 2 --point-jobs 3
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "resume of ${spec_name} failed (${status})")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${store}" "${GOLDEN}"
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  # Every golden spec header carries its own backtick-quoted regeneration
  # command (the golden-regen-note lint rule enforces this); print that
  # command verbatim so the fix is copy-pasteable from the test log.
  file(STRINGS "${SPEC}" regen_lines REGEX "^#.*`nomc-campaign [^`]+`")
  set(regen_cmd "nomc-campaign run ${SPEC} --overwrite")
  if(regen_lines)
    list(GET regen_lines 0 regen_line)
    string(REGEX MATCH "`(nomc-campaign [^`]+)`" _ "${regen_line}")
    set(regen_cmd "${CMAKE_MATCH_1}")
  endif()
  message(FATAL_ERROR
    "${spec_name}: store diverges from golden ${GOLDEN}.\n"
    "If the numeric change is intentional, regenerate the golden with:\n"
    "  ${regen_cmd}")
endif()
