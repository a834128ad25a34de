// Auto-generated unit test scaffolding. Edit only between
// ULTGEN-ANCHOR markers; regeneration keeps those regions.
#ifndef ULTGEN_A_TEST_FIXTURE_H
#define ULTGEN_A_TEST_FIXTURE_H

#include "test_a.h"
#include "mock_c.h"

class A_TestCase : public testing::Test
{
public:
    virtual void SetUp()
    {
        // ULTGEN-ANCHOR: SetUpBody
        // ULTGEN-END
    }
    virtual void TearDown()
    {
        // ULTGEN-ANCHOR: TearDownBody
        // ULTGEN-END
    }
    Test_A* testA;
};

TEST_F(A_TestCase, func1)
{
    testA->func1Test();
}

TEST_F(A_TestCase, func2)
{
    testA->func2Test();
}

#endif
