/** @file Tests for the IR verifier: structural/type well-formedness
 * diagnostics, located parse-time errors, and the warning-only
 * findings (mixed compares, unreachable blocks). */

#include <gtest/gtest.h>

#include "common/diag.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "compiler/analysis/verifier.hh"
#include "compiler/ir_parser.hh"

using namespace upr;
using namespace upr::ir;

namespace
{

/** Parse @p source expecting a verify error whose message contains
 * every string in @p needles. */
void
expectVerifyFault(const char *source,
                  std::initializer_list<const char *> needles)
{
    try {
        parseModule(source);
        FAIL() << "expected an IR verify error";
    } catch (const Fault &f) {
        const std::string msg = f.what();
        EXPECT_NE(msg.find("IR verify error"), std::string::npos)
            << msg;
        for (const char *n : needles)
            EXPECT_NE(msg.find(n), std::string::npos)
                << "missing '" << n << "' in: " << msg;
    }
}

/** First diagnostic with the given code, or nullptr. */
const Diagnostic *
findCode(const DiagnosticEngine &diags, const std::string &code)
{
    for (const Diagnostic &d : diags.all()) {
        if (d.code == code)
            return &d;
    }
    return nullptr;
}

} // namespace

TEST(Verifier, CleanModuleHasNoFindings)
{
    Module mod = parseModule(R"(
func @main(%n: i64) -> i64 {
entry:
  %p = pmalloc 16
  %zero = const 0
  store %zero, %p
  %v = load.i64 %p
  pfree %p
  ret %v
}
)");
    DiagnosticEngine diags;
    EXPECT_TRUE(verifyModule(mod, diags));
    EXPECT_TRUE(diags.empty()) << diags.render();
}

TEST(Verifier, MissingTerminatorIsLocated)
{
    // Block 'entry' falls off the end at line 4.
    expectVerifyFault(R"(
func @f() {
entry:
  %a = const 1
}
)",
                      {"verify-missing-terminator", "line 4"});
}

TEST(Verifier, TerminatorMidBlock)
{
    expectVerifyFault(R"(
func @f() {
entry:
  ret
  %a = const 1
  ret
}
)",
                      {"verify-terminator-mid-block"});
}

TEST(Verifier, DefDoesNotReachUseOnAllPaths)
{
    // %x is defined only on the 'yes' path but used after the join.
    expectVerifyFault(R"(
func @f(%c: i64) -> i64 {
entry:
  br %c, yes, no
yes:
  %x = const 7
  jmp out
no:
  jmp out
out:
  ret %x
}
)",
                      {"verify-def-before-use", "%x"});
}

TEST(Verifier, UseBeforeDefInSameBlock)
{
    // Textual use-before-def is already a (located) parse error; the
    // dataflow pass only has to handle the cross-block cases.
    try {
        parseModule(R"(
func @f() -> i64 {
entry:
  %b = add %a, %a
  %a = const 1
  ret %b
}
)");
        FAIL() << "expected a parse error";
    } catch (const Fault &f) {
        const std::string msg = f.what();
        EXPECT_NE(msg.find("used before definition"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
    }
}

TEST(Verifier, PhiMissingPredecessor)
{
    // The phi claims an incoming edge from 'other', which is not a
    // CFG predecessor of 'out'.
    expectVerifyFault(R"(
func @f(%c: i64) -> i64 {
entry:
  %a = const 1
  jmp out
other:
  %b = const 2
  jmp out
out:
  %x = phi.i64 [other, %b]
  ret %x
}
)",
                      {"verify-phi-pred"});
}

TEST(Verifier, PhiNotAtBlockTop)
{
    expectVerifyFault(R"(
func @f(%c: i64) -> i64 {
entry:
  %a = const 1
  jmp out
out:
  %b = const 2
  %x = phi.i64 [entry, %a]
  ret %x
}
)",
                      {"verify-phi-not-at-top"});
}

TEST(Verifier, StoreAddressMustBePointer)
{
    expectVerifyFault(R"(
func @f() {
entry:
  %v = const 1
  store %v, %v
  ret
}
)",
                      {"verify-operand-type"});
}

TEST(Verifier, StorePValueMustBePointer)
{
    expectVerifyFault(R"(
func @f() {
entry:
  %p = pmalloc 16
  %v = const 1
  storep %v, %p
  ret
}
)",
                      {"verify-operand-type"});
}

TEST(Verifier, ReturnTypeMismatch)
{
    expectVerifyFault(R"(
func @f() -> i64 {
entry:
  %p = pmalloc 16
  ret %p
}
)",
                      {"verify-operand-type", "must be i64"});
}

TEST(Verifier, VoidReturnWithValue)
{
    expectVerifyFault(R"(
func @f() {
entry:
  %v = const 1
  ret %v
}
)",
                      {"verify-return-type"});
}

TEST(Verifier, UndefinedCalleeCaughtAtModuleClose)
{
    expectVerifyFault(R"(
func @f() {
entry:
  call @nope()
  ret
}
)",
                      {"verify-undefined-callee", "@nope"});
}

TEST(Verifier, CallArgumentTypeMismatch)
{
    expectVerifyFault(R"(
func @g(%p: ptr) {
entry:
  ret
}

func @f() {
entry:
  %v = const 1
  call @g(%v)
  ret
}
)",
                      {"verify-call-type"});
}

TEST(Verifier, MixedCompareIsWarningOnly)
{
    // Comparing a pointer with an integer parses fine (the paper's
    // legacy code does this through ptrtoint all the time when the
    // cast is implicit) but the verifier flags it as suspicious.
    Module mod = parseModule(R"(
func @f(%p: ptr, %n: i64) -> i64 {
entry:
  %r = eq %p, %n
  ret %r
}
)");
    DiagnosticEngine diags;
    EXPECT_TRUE(verifyModule(mod, diags)); // warnings keep it true
    EXPECT_EQ(diags.errorCount(), 0u);
    const Diagnostic *d = findCode(diags, "verify-mixed-compare");
    ASSERT_NE(d, nullptr) << diags.render();
    EXPECT_EQ(d->severity, DiagSeverity::Warning);
    EXPECT_TRUE(d->loc.known());
}

TEST(Verifier, UnreachableBlockIsWarningOnly)
{
    Module mod = parseModule(R"(
func @f() -> i64 {
entry:
  %a = const 1
  ret %a
island:
  %b = const 2
  ret %b
}
)");
    DiagnosticEngine diags;
    EXPECT_TRUE(verifyModule(mod, diags));
    EXPECT_EQ(diags.errorCount(), 0u);
    const Diagnostic *d =
        findCode(diags, "verify-unreachable-block");
    ASSERT_NE(d, nullptr) << diags.render();
    EXPECT_EQ(d->severity, DiagSeverity::Warning);
}

TEST(Verifier, ParseErrorsCarryLineAndColumn)
{
    try {
        parseModule(R"(
func @f() {
entry:
  %a = bogus 1
  ret
}
)");
        FAIL() << "expected a parse error";
    } catch (const Fault &f) {
        const std::string msg = f.what();
        EXPECT_NE(msg.find("IR parse error"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
        EXPECT_NE(msg.find("col"), std::string::npos) << msg;
    }
}

TEST(Verifier, DiagnosticRenderFormat)
{
    Diagnostic d;
    d.severity = DiagSeverity::Error;
    d.code = "fig4-mixed-storep";
    d.message = "bad store";
    d.function = "f";
    d.loc = SrcLoc{12, 3};
    EXPECT_EQ(d.render("m.ir"),
              "m.ir:12:3: error: [fig4-mixed-storep] bad store [@f]");
}

TEST(Verifier, EngineSortsByLocation)
{
    DiagnosticEngine diags;
    diags.warning("b", SrcLoc{9, 1}, "later");
    diags.error("a", SrcLoc{2, 5}, "earlier");
    diags.sortByLocation();
    ASSERT_EQ(diags.all().size(), 2u);
    EXPECT_EQ(diags.all()[0].code, "a");
    EXPECT_EQ(diags.all()[1].code, "b");
    EXPECT_EQ(diags.errorCount(), 1u);
    EXPECT_EQ(diags.warningCount(), 1u);
}

TEST(DiagnosticJson, MessageIsEscaped)
{
    const std::string message = "say \"hi\" to C:\\ir\nthen\x01";
    DiagnosticEngine diags;
    diags.error("x-code", SrcLoc{3, 4}, message, "fn");
    JsonWriter json;
    diags.renderJson(json);
    const std::string &text = json.str();

    for (const char c : text)
        EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n');
    EXPECT_NE(text.find("\"message\": \"say \\\"hi\\\" to C:\\\\ir"
                        "\\nthen\\u0001\""),
              std::string::npos)
        << text;
    const JsonValue doc = parseJson(text);
    ASSERT_EQ(doc.items().size(), 1u);
    EXPECT_EQ(doc.items()[0].find("message")->asString(), message);
    EXPECT_EQ(doc.items()[0].find("line")->asUint(), 3u);
}
