# Smoke run of scaling_curve, run as a ctest via `cmake -P`:
#
#   cmake -DBENCH=<scaling_curve> -DOUT=<json path> -P check_scaling_smoke.cmake
#
# Runs `scaling_curve --smoke` and fails unless it exits 0 and every point
# prints its pinned digests. The run is deterministic, so a point whose
# sense_energy reads (`digest`) or listener callbacks (`notify`) differ from
# the pins means the medium changed what it computes, not just how fast.
# A deliberate change to the bench's city re-pins them here.

foreach(var BENCH OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_scaling_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

# mode nodes digest notify
set(pins
  "culled 100 91a29ba517926a1e 793cef19b775dc6f"
  "culled 300 9fad8abada917ee5 61dd2dfdc65c43ac"
  "dense 100 e68edb6b72a6f9f9 ca55f0c9ceb46905"
  "dense 300 d37f9db8876e40ae 144c8e4fa3cf9ba5")

execute_process(COMMAND "${BENCH}" --smoke --out "${OUT}"
                RESULT_VARIABLE status OUTPUT_VARIABLE output)
message("${output}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "scaling_curve --smoke failed (${status})")
endif()
foreach(pin IN LISTS pins)
  string(REPLACE " " ";" fields "${pin}")
  list(GET fields 0 mode)
  list(GET fields 1 nodes)
  list(GET fields 2 digest)
  list(GET fields 3 notify)
  if(NOT output MATCHES "${mode} +${nodes} nodes:[^\n]* digest ${digest}  notify ${notify}\n")
    message(FATAL_ERROR
      "${mode} ${nodes}: expected digest ${digest} and notify ${notify} in the output above")
  endif()
endforeach()
