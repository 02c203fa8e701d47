// Text trace reader: every line it cannot replay throws TraceError
// naming the line.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "traffic/trace_io.hpp"

namespace dxbar {
namespace {

TEST(TraceTextIo, MalformedLineThrowsTypedError) {
  // A line whose cycle parses but whose tail is junk, whose length no
  // Flit can describe, whose node lies outside the 64-node network,
  // with a negative number, or with more than four tokens.
  for (const char* text :
       {"10 0 1 1\n11 0 junk\n", "10 0 1 1\n11 0 1 65536\n",
        "10 0 1 1\n11 1 64 5\n", "10 0 1 1\n11 -1 3 5\n",
        "10 0 1 1\n-5 1 2 1\n", "10 0 1 1\n0 1 2 3 junk\n"}) {
    std::istringstream is(text);
    try {
      (void)read_trace(is, 64);
      ADD_FAILURE() << "malformed line accepted: " << text;
    } catch (const TraceError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace dxbar
